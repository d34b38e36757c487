package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "s12", "h4096", "http://a:6060", "9f86d081884c7d65",
		`quote"back\slash`, "<script>&", "tab\tnl\nctl\x01", "del\x7f",
		"héllo", "  ", "bad\xffutf8", "日本",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got[1:], want)
		}
	}
}

func TestReadLimited(t *testing.T) {
	data := strings.Repeat("0123456789", 300)
	for _, limit := range []int{0, 1, 511, 512, 513, len(data) - 1, len(data), len(data) + 1} {
		for name, r := range map[string]io.Reader{
			"whole":   strings.NewReader(data),
			"onebyte": iotest.OneByteReader(strings.NewReader(data)),
			"dataerr": iotest.DataErrReader(strings.NewReader(data)),
		} {
			want, _ := io.ReadAll(io.LimitReader(strings.NewReader(data), int64(limit)))
			got, err := ReadLimited(r, []byte("pre"), limit)
			if err != nil || !bytes.Equal(got, append([]byte("pre"), want...)) {
				t.Errorf("%s limit %d: read %d bytes, err %v; want %d", name, limit, len(got)-3, err, len(want))
			}
		}
	}
	if _, err := ReadLimited(iotest.ErrReader(io.ErrClosedPipe), nil, 10); err != io.ErrClosedPipe {
		t.Errorf("read error = %v, want it passed through", err)
	}
}

func TestBufPoolDropsHugeBuffers(t *testing.T) {
	b := GetBuf()
	*b = make([]byte, 0, maxPooled+1)
	PutBuf(b) // must not be kept: nothing to assert but that small ones are reusable
	b = GetBuf()
	if len(*b) != 0 {
		t.Fatalf("GetBuf returned %d bytes, want an empty buffer", len(*b))
	}
	*b = append(*b, "data"...)
	PutBuf(b)
	if b = GetBuf(); len(*b) != 0 {
		t.Fatalf("recycled buffer not emptied: %q", *b)
	}
}

// TestDecNumbers: the scanner takes exactly the integers that encoding/json
// would store in the same Go type, and refuses (for the fallback) the rest.
func TestDecNumbers(t *testing.T) {
	for _, in := range []string{
		"0", "-0", "7", "-7", "10", "01", "-", "", "1.0", "1e3", "+1", " 42 ",
		"999999999999999999", "9223372036854775807", "9223372036854775808",
		"18446744073709551615", "18446744073709551616", "-9223372036854775808",
	} {
		var wantI int64
		errI := json.Unmarshal([]byte(in), &wantI)
		d := NewDec([]byte(in))
		if got := d.Int64(); d.OK() && (errI != nil || got != wantI) {
			t.Errorf("Int64(%q) = %d, encoding/json: %d, %v", in, got, wantI, errI)
		}
		var wantU uint64
		errU := json.Unmarshal([]byte(in), &wantU)
		d = NewDec([]byte(in))
		if got := d.Uint64(); d.OK() && (errU != nil || got != wantU) {
			t.Errorf("Uint64(%q) = %d, encoding/json: %d, %v", in, got, wantU, errU)
		}
	}
	// The plain forms must be taken, not merely never mis-decoded.
	for in, want := range map[string]int64{"0": 0, "7": 7, "-12": -12, " 42 ": 42,
		"1790736752423972440": 1790736752423972440, // a unix-nanosecond span timestamp
		"9223372036854775807": math.MaxInt64, "-9223372036854775808": math.MinInt64} {
		d := NewDec([]byte(in))
		if got := d.Int64(); !d.OK() || got != want {
			t.Errorf("Int64(%q) = %d ok=%v, want %d", in, got, d.OK(), want)
		}
	}
	d := NewDec([]byte("9999999999999999999"))
	if got := d.Uint64(); !d.OK() || got != 9999999999999999999 {
		t.Errorf("Uint64(19 nines) = %d ok=%v", got, d.OK())
	}
}

func TestDecStringsAndArrays(t *testing.T) {
	d := NewDec([]byte(` { "k" : "v{}[],:" , "a" : [ 1 , -2,3 ] , "e":[] } `))
	d.Expect('{')
	var got []string
	for first := true; d.Next('}', first); first = false {
		switch key := d.Key(); string(key) {
		case "k":
			got = append(got, "k="+d.Str())
		case "a", "e":
			ids := d.Ints()
			if ids == nil {
				t.Errorf("Ints returned nil for key %s; encoding/json yields an empty slice", key)
			}
			b, _ := json.Marshal(ids)
			got = append(got, string(key)+"="+string(b))
		}
	}
	if want := "k=v{}[],: a=[1,-2,3] e=[]"; !d.OK() || strings.Join(got, " ") != want {
		t.Errorf("scan = %q ok=%v, want %q", strings.Join(got, " "), d.OK(), want)
	}
	for _, bad := range []string{`"a\nb"`, `"é"`, "\"ctl\x01\"", `"open`, `null`, `7`} {
		d := NewDec([]byte(bad))
		if s := d.Str(); d.OK() {
			t.Errorf("Str(%s) = %q accepted; escapes, non-ASCII and non-strings belong to encoding/json", bad, s)
		}
	}
	for _, bad := range []string{`[1,]`, `[,1]`, `[1 2]`, `[1`, `[1]]`, `[1.5]`, `["1"]`, `[null]`} {
		d := NewDec([]byte(bad))
		if ids := d.Ints(); d.OK() {
			t.Errorf("Ints(%s) = %v accepted", bad, ids)
		}
	}
}

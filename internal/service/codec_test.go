package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/rtsync/rwrnlp/client"
)

// plainAcquireRequests are bodies as the client emits them: the hand-written
// decoder must take every one itself, not hand it to the fallback.
var plainAcquireRequests = []client.AcquireRequest{
	{SessionID: "s1", Write: []client.ResourceID{0}},
	{SessionID: "s42", Read: []client.ResourceID{3, 1, 2}},
	{SessionID: "s7", Read: []client.ResourceID{0}, Write: []client.ResourceID{1, 2},
		TraceID: "9f86d081884c7d65", SpanID: "00000000000000ab"},
	{SessionID: "s7", Read: []client.ResourceID{-1, 1 << 40}},
	{SessionID: ""},
	{},
}

// oddAcquireBodies are bodies a client of another make could send, or an
// attacker: whatever encoding/json does with each, the server must still do.
var oddAcquireBodies = []string{
	``, ` `, `null`, `{}`, ` { } `, `[]`, `7`, `"s1"`, `{`, `}`, `{"session_id":"s1"`,
	`{"session_id":"s1","write":[0],"future_field":{"a":[1,{"b":null}],"c":"}"}}`,
	`{"session_id":"s1","write":[0]} trailing`,
	`{"session_id":"s1","write":[0]}{"session_id":"s2"}`,
	"{\n\t\"session_id\" : \"s1\" ,\r\n \"read\" : [ 1 , 2 ] }\n",
	`{"read":[],"write":[],"session_id":"s1"}`,
	`{"read":null,"write":[1],"session_id":null}`,
	`{"Session_ID":"s1","WRITE":[1]}`,
	`{"session_id":"s1","session_id":"s2","write":[1],"write":[2,3]}`,
	`{"session_id":"s1","trace_id":"café","span_id":"é"}`,
	`{"session_id":"a\"b\\c","write":[0]}`,
	"{\"session_id\":\"bad\xffutf8\",\"write\":[0]}",
	"{\"session_id\":\"ctl\x01\",\"write\":[0]}",
	`{"session_id":"s1","write":[1.0]}`, `{"session_id":"s1","write":[1e2]}`,
	`{"session_id":"s1","write":[01]}`, `{"session_id":"s1","write":[-0]}`,
	`{"session_id":"s1","write":[-]}`, `{"session_id":"s1","write":["1"]}`,
	`{"session_id":"s1","write":[99999999999999999999999]}`,
	`{"session_id":"s1","write":[9223372036854775807,-9223372036854775808]}`,
	`{"session_id":"s1","write":[1,]}`, `{"session_id":"s1","write":[,1]}`,
	`{"session_id":"s1",}`, `{,"session_id":"s1"}`, `{"session_id" "s1"}`,
	`{"session_id":7}`, `{"session_id":["s1"]}`, `{"write":{"0":1}}`, `{"write":7}`,
	`{session_id:"s1"}`, `{'session_id':'s1'}`,
}

func TestDecodeAcquireRequestMatchesEncodingJSON(t *testing.T) {
	for _, want := range plainAcquireRequests {
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got client.AcquireRequest
		if !fastDecodeAcquireRequest(body, &got) {
			t.Errorf("%s: the client's own encoding fell back to encoding/json", body)
		}
		var ref client.AcquireRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", body, got, ref)
		}
	}
	for _, body := range oddAcquireBodies {
		checkDecodeAcquireRequest(t, []byte(body))
	}
}

// checkDecodeAcquireRequest holds unmarshal to json.Unmarshal's verdict and
// value on one body, and the fast path to never disagreeing with either.
func checkDecodeAcquireRequest(t *testing.T, body []byte) {
	t.Helper()
	var ref, got, fast client.AcquireRequest
	refErr := json.Unmarshal(body, &ref)
	gotErr := unmarshal(body, &got)
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: unmarshal error %v, encoding/json error %v", body, gotErr, refErr)
	}
	if refErr == nil && !reflect.DeepEqual(got, ref) {
		t.Fatalf("%q: decoded %+v, encoding/json %+v", body, got, ref)
	}
	if fastDecodeAcquireRequest(body, &fast) && (refErr != nil || !reflect.DeepEqual(fast, ref)) {
		t.Fatalf("%q: fast path took it as %+v; encoding/json: %+v, %v", body, fast, ref, refErr)
	}
}

func FuzzDecodeAcquireRequest(f *testing.F) {
	for _, r := range plainAcquireRequests {
		body, _ := json.Marshal(r)
		f.Add(body)
	}
	for _, body := range oddAcquireBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeAcquireRequest(t, body) })
}

func TestDecodeReleaseRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"session_id":"s1","handle":"h9"}`, `{"handle":"h9","session_id":"s1"}`,
		` {"session_id" : "s1" , "handle" : "h9" } `, `{"session_id":"","handle":""}`, `{}`,
	} {
		var got, ref client.ReleaseRequest
		if !fastDecodeReleaseRequest([]byte(body), &got) {
			t.Errorf("%s: plain body fell back to encoding/json", body)
		}
		if err := json.Unmarshal([]byte(body), &ref); err != nil || got != ref {
			t.Errorf("%s: decoded %+v, encoding/json %+v (%v)", body, got, ref, err)
		}
	}
	for _, body := range []string{
		``, `null`, `{"session_id":"s1","handle":"h9","extra":[{}]}`, `{"session_id":"s1","handle":"h9"}`,
		`{"session_id":"s1","session_id":"s2","handle":"h9"}`, `{"Handle":"h9","SESSION_ID":"s1"}`,
		`{"session_id":"s1","handle":9}`, `{"session_id":"s1","handle":"h9"}x`, `{"session_id":"s1","handle":null}`,
	} {
		var got, ref client.ReleaseRequest
		gotErr, refErr := unmarshal([]byte(body), &got), json.Unmarshal([]byte(body), &ref)
		if (gotErr == nil) != (refErr == nil) || (refErr == nil && got != ref) {
			t.Errorf("%s: unmarshal %+v, %v; encoding/json %+v, %v", body, got, gotErr, ref, refErr)
		}
	}
}

func TestAppendGrantInfoMatchesEncodingJSON(t *testing.T) {
	for _, g := range []client.GrantInfo{
		{},
		{Handle: "h1", Fencing: []client.ComponentToken{}},
		{Handle: "h1", Fencing: []client.ComponentToken{{Component: 0, Token: 1}}},
		{Handle: "h77", Fencing: []client.ComponentToken{{Component: 2, Token: 18446744073709551615}, {Component: 3, Token: 9}},
			Spans: []client.WireSpan{
				{Name: "admission", Node: "http://a:6060", Parent: "00000000000000ab", StartUnixNS: 1, EndUnixNS: 2},
				{Name: "wait", StartUnixNS: -5, EndUnixNS: 1759190400123456789, Attrs: untrackedAttrs},
				{Name: "wait", Node: "local", Attrs: map[string]string{
					"req": "12", "delay_ticks": "4", "attr_writer_queue_wait": "4", "issue_blockers": "8 4",
					"blocker_trace_8": "9f86d081884c7d65", "entitle_blockers": "8", "z": "", "": "empty key",
					"html": "<a href=\"x\">&</a>", "utf8": "héllo ", "bad": "\xff"}},
				{Name: "odd \"name\"\n", Node: "nœud", Parent: "<p>", Attrs: map[string]string{}},
			}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(g); err != nil {
			t.Fatal(err)
		}
		if got := appendGrantInfo(nil, &g); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendGrantInfo wrote\n%s\nencoding/json writes\n%s", got, want.Bytes())
		}
	}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(struct{}{})
	if emptyReply != want.String() {
		t.Errorf("emptyReply = %q, encoding/json writes %q", emptyReply, want.String())
	}
}

// TestWireBodiesOverHTTP posts raw bodies at a live handler: an unknown field
// is ignored, as encoding/json ignores it, and a body past the 1 MiB bound is
// cut there and answered bad_request — whichever decoder saw it first.
func TestWireBodiesOverHTTP(t *testing.T) {
	srv, url := newNode(t, Config{Spec: testSpec(t, 4), LeaseTTL: time.Minute})
	sess, err := srv.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	status, body := post("/v1/acquire", `{"session_id":"`+sess.ID+`","write":[0,1],"priority":{"deadline_ms":5}}`)
	var g client.GrantInfo
	if err := json.Unmarshal([]byte(body), &g); status != http.StatusOK || err != nil || g.Handle == "" || len(g.Fencing) != 1 {
		t.Fatalf("acquire with an unknown field: %d %s (%v)", status, body, err)
	}
	if status, body := post("/v1/release", `{"handle":"`+g.Handle+`","session_id":"`+sess.ID+`","why":"done"}`); status != http.StatusOK || body != emptyReply {
		t.Fatalf("release with an unknown field: %d %q, want 200 %q", status, body, emptyReply)
	}

	pad := strings.Repeat(" ", maxBody)
	for path, huge := range map[string]string{
		"/v1/acquire": `{"session_id":"` + sess.ID + `","write":[0]` + pad + `}`,
		"/v1/release": `{"session_id":"` + sess.ID + `",` + pad + `"handle":"h1"}`,
	} {
		status, body := post(path, huge)
		var eb client.ErrorBody
		if err := json.Unmarshal([]byte(body), &eb); status != http.StatusBadRequest || err != nil || eb.Code != client.CodeBadRequest {
			t.Errorf("%s with a %d-byte body: %d %s, want 400 %s", path, len(huge), status, body, client.CodeBadRequest)
		}
	}
	// Exactly at the bound the body is whole and must be served.
	fit := `{"session_id":"` + sess.ID + `","write":[2]`
	status, body = post("/v1/acquire", fit+strings.Repeat(" ", maxBody-len(fit)-1)+`}`)
	if status != http.StatusOK {
		t.Errorf("acquire with a body of exactly %d bytes: %d %s, want 200", maxBody, status, body)
	}
}

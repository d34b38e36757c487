package client

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestAppendRequestMatchesEncodingJSON(t *testing.T) {
	for _, in := range []any{
		AcquireRequest{},
		AcquireRequest{SessionID: "s1", Write: []ResourceID{0}},
		AcquireRequest{SessionID: "s1", Read: []ResourceID{}, Write: []ResourceID{}},
		AcquireRequest{SessionID: "s42", Read: []ResourceID{3, 1, 2}, Write: []ResourceID{-7, 1 << 40},
			TraceID: "9f86d081884c7d65", SpanID: "00000000000000ab"},
		AcquireRequest{SessionID: "odd \"id\" <&>\n\xff é", TraceID: "t\\", SpanID: "\x7f"},
		ReleaseRequest{},
		ReleaseRequest{SessionID: "s1", Handle: "h4096"},
		ReleaseRequest{SessionID: "<s>", Handle: "h\"é\x00"},
		HeartbeatRequest{SessionID: "s1"},
		FenceRequest{Component: 2, Token: 9},
		OpenSessionRequest{},
	} {
		want, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRequest([]byte("x"), in)
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("appendRequest(%#v) = %s, %v; encoding/json writes %s", in, got[1:], err, want)
		}
	}
}

func TestDecodeGrantInfoMatchesEncodingJSON(t *testing.T) {
	// Replies as rnlpd writes them: the hand-written decoder must take every
	// one itself.
	for _, want := range []GrantInfo{
		{Handle: "h1", Fencing: []ComponentToken{}},
		{Handle: "h1", Fencing: []ComponentToken{{Component: 0, Token: 1}}},
		{Handle: "h77", Fencing: []ComponentToken{{Component: 2, Token: 9223372036854775807}, {Component: 3, Token: 9}},
			Spans: []WireSpan{
				{Name: "admission", Node: "http://a:6060", Parent: "00000000000000ab", StartUnixNS: 1, EndUnixNS: 2},
				{Name: "wait", Node: "local", StartUnixNS: -5, EndUnixNS: 1790736752423972440,
					Attrs: map[string]string{"path": "untracked"}},
				{Name: "wait", Attrs: map[string]string{"req": "12", "issue_blockers": "8 4", "blocker_trace_8": "9f86d081884c7d65", "": "{}[],:"}},
			}},
	} {
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got GrantInfo
		if !fastDecodeGrantInfo(append(body, '\n'), &got) {
			t.Errorf("%s: rnlpd's own encoding fell back to encoding/json", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", body, got, want)
		}
	}
	// Anything else must decode, or fail, as encoding/json has it.
	for _, body := range []string{
		``, `null`, `{}`, `[]`, `{"handle":"h1","fencing":null}`, `{"handle":null,"fencing":[]}`,
		`{"handle":"h1","fencing":[{"component":1,"token":2}],"lease_ms":500,"spans":[{"name":"wait","kind":{"x":[1]}}]}`,
		`{"handle":"h1","handle":"h2","fencing":[{"component":1,"token":2}],"fencing":[{"token":3}]}`,
		`{"handle":"h1","spans":[{"name":"a","attrs":{"k":"1"}},{"name":"b"}],"spans":[{"node":"n","attrs":{"j":"2"}}]}`,
		`{"handle":"h1","spans":[{"name":"a","attrs":{"k":"1","k":"2"},"attrs":{"j":"3"}}]}`,
		`{"Handle":"h1","FENCING":[{"Component":1,"TOKEN":2}]}`,
		`{"handle":"hé","fencing":[{"component":1,"token":2}]}`, `{"handle":"hé","fencing":[]}`,
		`{"handle":"h1","fencing":[{"component":1.5,"token":2}]}`, `{"handle":"h1","fencing":[{"component":1,"token":-2}]}`,
		`{"handle":"h1","fencing":[{"component":1,"token":18446744073709551615}]}`,
		`{"handle":"h1","fencing":[{"component":1,"token":18446744073709551616}]}`,
		`{"handle":"h1","fencing":[{"component":1,"token":2},]}`, `{"handle":"h1","fencing":[{"component":1,"token":2}]`,
		`{"handle":"h1","fencing":[]}{"handle":"h2"}`, `{"handle":"h1","fencing":[]} x`,
		`{"handle":"h1","spans":[{"name":"wait","attrs":{"k":7}}]}`, `{"handle":"h1","spans":[{"name":"wait","attrs":null}]}`,
		`{"handle":"h1","spans":[{"name":"wait","attrs":{}}]}`, `{"handle":"h1","spans":[]}`, `{"handle":"h1","spans":[null]}`,
		`{"handle":"h1","spans":[{"start_unix_ns":1e3}]}`, `{"handle":"h1","spans":[{"start_unix_ns":"1"}]}`,
	} {
		var got, ref, fast GrantInfo
		gotErr, refErr := unmarshalGrantInfo([]byte(body), &got), json.Unmarshal([]byte(body), &ref)
		if (gotErr == nil) != (refErr == nil) || (refErr == nil && !reflect.DeepEqual(got, ref)) {
			t.Errorf("%s: unmarshalGrantInfo %+v, %v; encoding/json %+v, %v", body, got, gotErr, ref, refErr)
		}
		if fastDecodeGrantInfo([]byte(body), &fast) && (refErr != nil || !reflect.DeepEqual(fast, ref)) {
			t.Errorf("%s: fast path took it as %+v; encoding/json: %+v, %v", body, fast, ref, refErr)
		}
	}
}

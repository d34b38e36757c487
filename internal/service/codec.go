package service

import (
	"encoding/json"
	"slices"
	"strconv"

	"github.com/rtsync/rwrnlp/client"
	"github.com/rtsync/rwrnlp/internal/wire"
)

// The server half of the hand-written codecs for the acquire/release hop (see
// package wire for the contract): the two requests are decoded, the grant is
// encoded. Every other message, and any request body outside the plain shape
// the client emits, goes through encoding/json.

// unmarshal is json.Unmarshal with the two hot requests decoded by hand when
// they have their plain shape.
func unmarshal(data []byte, v any) error {
	switch v := v.(type) {
	case *client.AcquireRequest:
		if fastDecodeAcquireRequest(data, v) {
			return nil
		}
		*v = client.AcquireRequest{}
	case *client.ReleaseRequest:
		if fastDecodeReleaseRequest(data, v) {
			return nil
		}
		*v = client.ReleaseRequest{}
	}
	return json.Unmarshal(data, v)
}

// fastDecodeAcquireRequest decodes a plain AcquireRequest into the zero value
// *req. On false, *req holds garbage and data must go to encoding/json.
func fastDecodeAcquireRequest(data []byte, req *client.AcquireRequest) bool {
	d := wire.NewDec(data)
	var seen uint
	d.Expect('{')
	for first := true; d.Next('}', first); first = false {
		switch key := d.Key(); string(key) {
		case "session_id":
			d.Once(&seen, 1)
			req.SessionID = d.Str()
		case "read":
			d.Once(&seen, 2)
			req.Read = d.Ints()
		case "write":
			d.Once(&seen, 4)
			req.Write = d.Ints()
		case "trace_id":
			d.Once(&seen, 8)
			req.TraceID = d.Str()
		case "span_id":
			d.Once(&seen, 16)
			req.SpanID = d.Str()
		default:
			d.Fail()
		}
	}
	return d.OK()
}

// fastDecodeReleaseRequest is fastDecodeAcquireRequest for ReleaseRequest.
func fastDecodeReleaseRequest(data []byte, req *client.ReleaseRequest) bool {
	d := wire.NewDec(data)
	var seen uint
	d.Expect('{')
	for first := true; d.Next('}', first); first = false {
		switch key := d.Key(); string(key) {
		case "session_id":
			d.Once(&seen, 1)
			req.SessionID = d.Str()
		case "handle":
			d.Once(&seen, 2)
			req.Handle = d.Str()
		default:
			d.Fail()
		}
	}
	return d.OK()
}

// emptyReply is what json.Encoder writes for struct{}{}.
const emptyReply = "{}\n"

// appendGrantInfo appends g as json.Encoder would write it, newline included.
func appendGrantInfo(b []byte, g *client.GrantInfo) []byte {
	b = append(b, `{"handle":`...)
	b = wire.AppendString(b, g.Handle)
	b = append(b, `,"fencing":`...)
	if g.Fencing == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, f := range g.Fencing {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"component":`...)
			b = strconv.AppendInt(b, int64(f.Component), 10)
			b = append(b, `,"token":`...)
			b = strconv.AppendUint(b, f.Token, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(g.Spans) > 0 {
		b = append(b, `,"spans":[`...)
		for i := range g.Spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendWireSpan(b, &g.Spans[i])
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

func appendWireSpan(b []byte, s *client.WireSpan) []byte {
	b = append(b, `{"name":`...)
	b = wire.AppendString(b, s.Name)
	if s.Node != "" {
		b = append(b, `,"node":`...)
		b = wire.AppendString(b, s.Node)
	}
	if s.Parent != "" {
		b = append(b, `,"parent":`...)
		b = wire.AppendString(b, s.Parent)
	}
	b = append(b, `,"start_unix_ns":`...)
	b = strconv.AppendInt(b, s.StartUnixNS, 10)
	b = append(b, `,"end_unix_ns":`...)
	b = strconv.AppendInt(b, s.EndUnixNS, 10)
	if len(s.Attrs) > 0 {
		b = append(b, `,"attrs":{`...)
		var stack [8]string
		keys := stack[:0]
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys) // encoding/json writes map keys sorted
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, k)
			b = append(b, ':')
			b = wire.AppendString(b, s.Attrs[k])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

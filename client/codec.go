package client

import (
	"encoding/json"
	"strconv"

	"github.com/rtsync/rwrnlp/internal/wire"
)

// The client half of the hand-written codecs for the acquire/release hop (see
// package wire for the contract): the two requests are encoded, the grant is
// decoded. Every other message, and any grant outside the plain shape rnlpd
// emits, goes through encoding/json.

// appendRequest appends in as json.Marshal would encode it.
func appendRequest(b []byte, in any) ([]byte, error) {
	switch in := in.(type) {
	case AcquireRequest:
		return appendAcquireRequest(b, &in), nil
	case ReleaseRequest:
		b = append(b, `{"session_id":`...)
		b = wire.AppendString(b, in.SessionID)
		b = append(b, `,"handle":`...)
		b = wire.AppendString(b, in.Handle)
		return append(b, '}'), nil
	}
	body, err := json.Marshal(in)
	return append(b, body...), err
}

func appendAcquireRequest(b []byte, r *AcquireRequest) []byte {
	b = append(b, `{"session_id":`...)
	b = wire.AppendString(b, r.SessionID)
	for _, f := range [2]struct {
		key string
		ids []ResourceID
	}{{`,"read":[`, r.Read}, {`,"write":[`, r.Write}} {
		if len(f.ids) == 0 {
			continue
		}
		b = append(b, f.key...)
		for i, id := range f.ids {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(id), 10)
		}
		b = append(b, ']')
	}
	if r.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = wire.AppendString(b, r.TraceID)
	}
	if r.SpanID != "" {
		b = append(b, `,"span_id":`...)
		b = wire.AppendString(b, r.SpanID)
	}
	return append(b, '}')
}

// unmarshalGrantInfo is json.Unmarshal for a GrantInfo reply, decoded by hand
// when it has its plain shape.
func unmarshalGrantInfo(data []byte, g *GrantInfo) error {
	if fastDecodeGrantInfo(data, g) {
		return nil
	}
	*g = GrantInfo{}
	return json.Unmarshal(data, g)
}

// fastDecodeGrantInfo decodes a plain GrantInfo into the zero value *g. On
// false, *g holds garbage and data must go to encoding/json.
func fastDecodeGrantInfo(data []byte, g *GrantInfo) bool {
	d := wire.NewDec(data)
	var seen uint
	d.Expect('{')
	for first := true; d.Next('}', first); first = false {
		switch key := d.Key(); string(key) {
		case "handle":
			d.Once(&seen, 1)
			g.Handle = d.Str()
		case "fencing":
			d.Once(&seen, 2)
			d.Expect('[')
			g.Fencing = make([]ComponentToken, 0, 1)
			for first := true; d.Next(']', first); first = false {
				g.Fencing = append(g.Fencing, decodeComponentToken(&d))
			}
		case "spans":
			d.Once(&seen, 4)
			d.Expect('[')
			g.Spans = make([]WireSpan, 0, 2) // admission and wait
			for first := true; d.Next(']', first); first = false {
				g.Spans = append(g.Spans, decodeWireSpan(&d))
			}
		default:
			d.Fail()
		}
	}
	return d.OK()
}

func decodeComponentToken(d *wire.Dec) (t ComponentToken) {
	var seen uint
	d.Expect('{')
	for first := true; d.Next('}', first); first = false {
		switch key := d.Key(); string(key) {
		case "component":
			d.Once(&seen, 1)
			t.Component = d.Int()
		case "token":
			d.Once(&seen, 2)
			t.Token = d.Uint64()
		default:
			d.Fail()
		}
	}
	return t
}

func decodeWireSpan(d *wire.Dec) (s WireSpan) {
	var seen uint
	d.Expect('{')
	for first := true; d.Next('}', first); first = false {
		switch key := d.Key(); string(key) {
		case "name":
			d.Once(&seen, 1)
			s.Name = d.Str()
		case "node":
			d.Once(&seen, 2)
			s.Node = d.Str()
		case "parent":
			d.Once(&seen, 4)
			s.Parent = d.Str()
		case "start_unix_ns":
			d.Once(&seen, 8)
			s.StartUnixNS = d.Int64()
		case "end_unix_ns":
			d.Once(&seen, 16)
			s.EndUnixNS = d.Int64()
		case "attrs":
			d.Once(&seen, 32)
			d.Expect('{')
			s.Attrs = make(map[string]string)
			for first := true; d.Next('}', first); first = false {
				k := d.Key()
				s.Attrs[string(k)] = d.Str()
			}
		default:
			d.Fail()
		}
	}
	return s
}

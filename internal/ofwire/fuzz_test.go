package ofwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// frame encodes m for use as a fuzz seed, failing the seed setup loudly if
// the message is unencodable.
func frame(f *testing.F, m *Message) []byte {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		f.Fatalf("seed frame: %v", err)
	}
	return buf.Bytes()
}

// splitReader hands out its stream in chunks the fuzzer picks: each byte of
// cuts is one Read's length minus one, and once cuts run out the rest comes
// in one Read. It is how the buffered stream test lands Read boundaries
// inside headers and bodies.
type splitReader struct {
	stream, cuts []byte
}

func (r *splitReader) Read(p []byte) (int, error) {
	if len(r.stream) == 0 {
		return 0, io.EOF
	}
	n := len(r.stream)
	if len(r.cuts) > 0 {
		n = min(n, int(r.cuts[0])+1)
		r.cuts = r.cuts[1:]
	}
	n = copy(p, r.stream[:n])
	r.stream = r.stream[n:]
	return n, nil
}

// FuzzCodecRoundTrip drives the codec with arbitrary bytes from three
// directions:
//
//   - decode: ReadMessage must never panic on hostile input, and any frame
//     it accepts must survive encode→decode with identical semantics;
//   - encode: an echo payload of any size must either round-trip exactly
//     or be rejected with ErrTooLarge — re-covering the uint16
//     length-wrap regression at exactly 64KiB frames fixed in PR 1;
//   - stream: the frames above, concatenated with a fixed reply frame, must
//     read back one by one through a bufio.Reader over a reader that splits
//     the stream at the fuzzer's cuts, and the stream must end exactly on a
//     frame boundary. This is how both ends of a connection read.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeHello}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeEchoRequest, XID: 7}, Raw: []byte("ping")}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeFlowMod, XID: 1}, FlowMod: &FlowMod{
		Command: FlowAdd, RuleID: 42, Priority: 9, DstAddr: 0x0a000000, DstLen: 8,
		SrcAddr: 0xc0a80000, SrcLen: 16, Action: 1, Port: 3,
	}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeFlowModReply, XID: 2}, FlowModReply: &FlowModReply{
		RuleID: 42, LatencyNS: 1e6, Path: 1, Guaranteed: true, Partitions: 3,
	}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeStatsReply, XID: 3}, Stats: &Stats{
		Inserts: 10, ShadowOcc: 4, MaxRateMilli: 1500,
	}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeQoSRequest, XID: 4}, QoSRequest: &QoSRequest{GuaranteeNS: 5e6}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeQoSReply, XID: 5}, QoSReply: &QoSReply{ShadowEntries: 100}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeError, XID: 6}, Error: &ErrorBody{
		Code: ErrCodeTableFull, Reason: "full",
	}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeFlowModBatch, XID: 8}, FlowModBatch: &FlowModBatch{
		Ops: []FlowMod{
			{Command: FlowAdd, RuleID: 1, Priority: 5, DstAddr: 0x0a000000, DstLen: 8, Action: 1},
			{Command: FlowDelete, RuleID: 2},
		},
	}}), []byte{})
	f.Add(frame(f, &Message{Header: Header{Type: TypeFlowModBatchReply, XID: 8}, FlowModBatchReply: &FlowModBatchReply{
		Entries: []BatchReplyEntry{
			{Reply: FlowModReply{RuleID: 1, LatencyNS: 1e6, Guaranteed: true, Partitions: 1}},
			{Code: ErrCodeDuplicateRule, Reply: FlowModReply{RuleID: 2}},
		},
	}}), []byte{})
	// The 64KiB batch boundary regression: the largest batch that fits one
	// frame. One op more is unencodable (ErrTooLarge) and must be split by
	// the client before it reaches the codec.
	full := &FlowModBatch{Ops: make([]FlowMod, MaxBatchOps)}
	for i := range full.Ops {
		full.Ops[i] = FlowMod{Command: FlowAdd, RuleID: uint64(i), Priority: int32(i % 7)}
	}
	f.Add(frame(f, &Message{Header: Header{Type: TypeFlowModBatch, XID: 10}, FlowModBatch: full}), []byte{})
	// Truncated and length-corrupted headers.
	f.Add([]byte{Version, byte(TypeHello), 0, 0, 0, 0, 0, 1}, []byte{})
	corrupt := frame(f, &Message{Header: Header{Type: TypeEchoRequest}, Raw: []byte("abcd")})
	binary.BigEndian.PutUint16(corrupt[2:4], 9) // lie about the length
	f.Add(corrupt, []byte{})
	// The 64KiB wrap regression: the largest rejected payload and the
	// largest accepted one.
	f.Add(make([]byte, MaxMessageLen-headerLen), []byte{})
	f.Add(make([]byte, MaxMessageLen-headerLen-1), []byte{})

	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		var stream bytes.Buffer // every frame below, back to back
		var sent []*Message

		// Direction 1: arbitrary bytes through the decoder.
		m, err := ReadMessage(bytes.NewReader(data))
		if err == nil {
			var buf bytes.Buffer
			if werr := WriteMessage(&buf, m); werr != nil {
				t.Fatalf("decoded frame did not re-encode: %v", werr)
			}
			stream.Write(buf.Bytes())
			sent = append(sent, m)
			m2, rerr := ReadMessage(&buf)
			if rerr != nil {
				t.Fatalf("re-encoded frame did not decode: %v", rerr)
			}
			assertSameMessage(t, m, m2)
		}

		// Direction 2: arbitrary payload through the encoder.
		echo := &Message{Header: Header{Type: TypeEchoRequest, XID: 99}, Raw: data}
		var buf bytes.Buffer
		werr := WriteMessage(&buf, echo)
		if headerLen+len(data) >= MaxMessageLen {
			if !errors.Is(werr, ErrTooLarge) {
				t.Fatalf("oversized frame (%d bytes) encoded with err=%v; length field would wrap",
					headerLen+len(data), werr)
			}
		} else {
			if werr != nil {
				t.Fatalf("encodable frame rejected: %v", werr)
			}
			if got := buf.Len(); got != headerLen+len(data) {
				t.Fatalf("frame length %d, want %d", got, headerLen+len(data))
			}
			stream.Write(buf.Bytes())
			back, rerr := ReadMessage(&buf)
			if rerr != nil {
				t.Fatalf("encoded echo did not decode: %v", rerr)
			}
			if !bytes.Equal(back.Raw, data) {
				t.Fatalf("echo payload corrupted: got %d bytes, want %d", len(back.Raw), len(data))
			}
			sent = append(sent, back)
		}

		// Direction 3: the frames above plus a fixed one, back to back,
		// through a buffered reader that sees the stream in cut pieces.
		reply := &Message{Header: Header{Version: Version, Type: TypeFlowModReply, XID: 3},
			FlowModReply: &FlowModReply{RuleID: 9, Path: 1}}
		if err := WriteMessage(&stream, reply); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, reply)
		br := bufio.NewReader(&splitReader{stream: stream.Bytes(), cuts: cuts})
		for i, want := range sent {
			got, err := ReadMessage(br)
			if err != nil {
				t.Fatalf("stream frame %d of %d: %v", i, len(sent), err)
			}
			assertSameMessage(t, want, got)
		}
		if _, err := ReadMessage(br); err != io.EOF {
			t.Fatalf("stream did not end on a frame boundary: %v", err)
		}
	})
}

// assertSameMessage compares everything a peer can observe: type, XID and
// the decoded body. Header.Length is excluded — the decoder tolerates
// oversized bodies, so re-encoding may produce a shorter canonical frame.
func assertSameMessage(t *testing.T, a, b *Message) {
	t.Helper()
	if a.Header.Type != b.Header.Type || a.Header.XID != b.Header.XID {
		t.Fatalf("header changed: %+v vs %+v", a.Header, b.Header)
	}
	normalize := func(m *Message) *Message {
		c := *m
		c.Header.Length = 0
		if len(c.Raw) == 0 {
			c.Raw = nil
		}
		return &c
	}
	if !reflect.DeepEqual(normalize(a), normalize(b)) {
		t.Fatalf("round trip changed message:\n first: %+v\nsecond: %+v", a, b)
	}
}

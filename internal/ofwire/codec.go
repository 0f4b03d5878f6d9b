package ofwire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// This file implements the binary codec: fixed-layout, big-endian bodies
// behind the 8-byte header, mirroring OpenFlow's framing discipline.

const (
	flowModLen      = 28
	flowModReplyLen = 24
	statsLen        = 64
	qosRequestLen   = 8
	qosReplyLen     = 24
	errorFixedLen   = 2

	// rules-dump framing: a fixed prefix (entry count) + a more-flag byte,
	// then count fixed-layout entries.
	rulesRequestLen    = 10
	rulesReplyFixedLen = 2
	ruleEntryLen       = 25

	// batch framing: a uint16 op count, then count fixed-layout bodies.
	// The reply entry is a uint16 status code plus a 20-byte flow-mod
	// reply; 22 < 28 keeps every well-formed batch's reply encodable.
	batchFixedLen      = 2
	batchReplyEntryLen = 22
)

// WriteMessage encodes m and writes it as one frame with a single Write.
func WriteMessage(w io.Writer, m *Message) error {
	// Sized for a per-op frame; larger frames grow the buffer once.
	_, err := writeFrame(w, make([]byte, 0, headerLen+flowModLen), m)
	return err
}

// writeFrame lays m out in buf, reusing its capacity, and writes the whole
// frame with one Write. It returns the (possibly grown) buffer so callers
// that own one per connection keep it across frames.
func writeFrame(w io.Writer, buf []byte, m *Message) ([]byte, error) {
	buf, err := appendFrame(buf[:0], m)
	if err == nil {
		_, err = w.Write(buf)
	}
	return buf, err
}

// appendFrame appends the header and body of m to b. On error b comes back
// unextended.
func appendFrame(b []byte, m *Message) ([]byte, error) {
	start := len(b)
	b = append(b, Version, byte(m.Header.Type), 0, 0)
	b = binary.BigEndian.AppendUint32(b, m.Header.XID)
	b, err := appendBody(b, m)
	if err != nil {
		return b[:start], err
	}
	total := len(b) - start
	// The length field is a uint16, so a frame of exactly MaxMessageLen
	// (1<<16) would wrap to 0; the largest encodable frame is one byte
	// shorter.
	if total >= MaxMessageLen {
		return b[:start], ErrTooLarge
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(total))
	return b, nil
}

func appendBody(b []byte, m *Message) ([]byte, error) {
	be := binary.BigEndian
	switch m.Header.Type {
	case TypeHello, TypeBarrierRequest, TypeBarrierReply, TypeStatsRequest:
		return b, nil
	case TypeEchoRequest, TypeEchoReply:
		return append(b, m.Raw...), nil
	case TypeFlowMod:
		if m.FlowMod == nil {
			return b, fmt.Errorf("ofwire: flow-mod frame without body")
		}
		return appendFlowMod(b, m.FlowMod), nil
	case TypeFlowModReply:
		r := m.FlowModReply
		if r == nil {
			return b, fmt.Errorf("ofwire: flow-mod-reply frame without body")
		}
		b = be.AppendUint64(b, r.RuleID)
		b = be.AppendUint64(b, r.LatencyNS)
		// Four pad bytes fill the 24-byte layout.
		return append(b, r.Path, boolByte(r.Guaranteed), boolByte(r.Violation), r.Partitions, 0, 0, 0, 0), nil
	case TypeStatsReply:
		s := m.Stats
		if s == nil {
			return b, fmt.Errorf("ofwire: stats-reply frame without body")
		}
		for _, v := range [...]uint64{s.Inserts, s.ShadowInserts, s.MainInserts, s.Bypasses, s.Violations, s.Migrations} {
			b = be.AppendUint64(b, v)
		}
		for _, v := range [...]uint32{s.ShadowOcc, s.MainOcc, s.ShadowSize, s.OverheadPPM} {
			b = be.AppendUint32(b, v)
		}
		// MaxRateMilli rides in a trailing extension to keep the fixed
		// layout stable.
		return be.AppendUint64(b, s.MaxRateMilli), nil
	case TypeQoSRequest:
		q := m.QoSRequest
		if q == nil {
			return b, fmt.Errorf("ofwire: qos-request frame without body")
		}
		return be.AppendUint64(b, q.GuaranteeNS), nil
	case TypeQoSReply:
		q := m.QoSReply
		if q == nil {
			return b, fmt.Errorf("ofwire: qos-reply frame without body")
		}
		b = be.AppendUint32(b, q.ShadowEntries)
		b = be.AppendUint32(b, q.OverheadPPM)
		b = be.AppendUint64(b, q.MaxRateMilli)
		return be.AppendUint64(b, q.GuaranteeNS), nil
	case TypeError:
		e := m.Error
		if e == nil {
			return b, fmt.Errorf("ofwire: error frame without body")
		}
		b = be.AppendUint16(b, uint16(e.Code))
		return append(b, e.Reason...), nil
	case TypeFlowModBatch:
		fb := m.FlowModBatch
		if fb == nil {
			return b, fmt.Errorf("ofwire: flow-mod-batch frame without body")
		}
		if len(fb.Ops) > MaxBatchOps {
			return b, ErrTooLarge
		}
		b = be.AppendUint16(slices.Grow(b, batchFixedLen+flowModLen*len(fb.Ops)), uint16(len(fb.Ops)))
		for i := range fb.Ops {
			b = appendFlowMod(b, &fb.Ops[i])
		}
		return b, nil
	case TypeFlowModBatchReply:
		fb := m.FlowModBatchReply
		if fb == nil {
			return b, fmt.Errorf("ofwire: flow-mod-batch-reply frame without body")
		}
		if len(fb.Entries) > MaxBatchOps {
			return b, ErrTooLarge
		}
		b = be.AppendUint16(slices.Grow(b, batchFixedLen+batchReplyEntryLen*len(fb.Entries)), uint16(len(fb.Entries)))
		for _, e := range fb.Entries {
			b = appendBatchReplyEntry(b, e)
		}
		return b, nil
	case TypeRulesRequest:
		q := m.RulesRequest
		if q == nil {
			return b, fmt.Errorf("ofwire: rules-request frame without body")
		}
		b = be.AppendUint64(b, q.After)
		return be.AppendUint16(b, q.Max), nil
	case TypeRulesReply:
		q := m.RulesReply
		if q == nil {
			return b, fmt.Errorf("ofwire: rules-reply frame without body")
		}
		if len(q.Rules) > MaxRuleEntries {
			return b, ErrTooLarge
		}
		b = be.AppendUint16(slices.Grow(b, rulesReplyFixedLen+1+ruleEntryLen*len(q.Rules)), uint16(len(q.Rules)))
		b = append(b, boolByte(q.More))
		for _, e := range q.Rules {
			b = appendRuleEntry(b, e)
		}
		return b, nil
	default:
		return b, fmt.Errorf("%w: %d", ErrBadType, m.Header.Type)
	}
}

// appendRuleEntry appends the 25-byte rule-entry body:
//
//	0-7    rule id
//	8-11   priority
//	12-15  dst addr   16 dst len
//	17-20  src addr   21 src len
//	22     action
//	23-24  port
func appendRuleEntry(b []byte, e RuleEntry) []byte {
	b = binary.BigEndian.AppendUint64(b, e.RuleID)
	b = binary.BigEndian.AppendUint32(b, uint32(e.Priority))
	b = binary.BigEndian.AppendUint32(b, e.DstAddr)
	b = append(b, e.DstLen)
	b = binary.BigEndian.AppendUint32(b, e.SrcAddr)
	b = append(b, e.SrcLen, e.Action)
	return binary.BigEndian.AppendUint16(b, e.Port)
}

func decodeRuleEntry(b []byte) RuleEntry {
	return RuleEntry{
		RuleID:   binary.BigEndian.Uint64(b[0:8]),
		Priority: int32(binary.BigEndian.Uint32(b[8:12])),
		DstAddr:  binary.BigEndian.Uint32(b[12:16]),
		DstLen:   b[16],
		SrcAddr:  binary.BigEndian.Uint32(b[17:21]),
		SrcLen:   b[21],
		Action:   b[22],
		Port:     binary.BigEndian.Uint16(b[23:25]),
	}
}

// appendFlowMod appends the 28-byte flow-mod body:
//
//	0      command
//	1      pad
//	2-3    port
//	4-11   rule id
//	12-15  priority
//	16-19  dst addr   20 dst len
//	21-24  src addr   25 src len
//	26     action     27 pad
func appendFlowMod(b []byte, f *FlowMod) []byte {
	b = append(b, byte(f.Command), 0)
	b = binary.BigEndian.AppendUint16(b, f.Port)
	b = binary.BigEndian.AppendUint64(b, f.RuleID)
	b = binary.BigEndian.AppendUint32(b, uint32(f.Priority))
	b = binary.BigEndian.AppendUint32(b, f.DstAddr)
	b = append(b, f.DstLen)
	b = binary.BigEndian.AppendUint32(b, f.SrcAddr)
	return append(b, f.SrcLen, f.Action, 0)
}

func decodeFlowModFixed(b []byte) (*FlowMod, error) {
	if len(b) < flowModLen {
		return nil, ErrTruncated
	}
	f := decodeFlowModValue(b)
	return &f, nil
}

// decodeFlowModValue decodes the 28-byte layout by value (no allocation);
// the caller guarantees len(b) ≥ flowModLen.
func decodeFlowModValue(b []byte) FlowMod {
	return FlowMod{
		Command:  FlowModCommand(b[0]),
		Port:     binary.BigEndian.Uint16(b[2:4]),
		RuleID:   binary.BigEndian.Uint64(b[4:12]),
		Priority: int32(binary.BigEndian.Uint32(b[12:16])),
		DstAddr:  binary.BigEndian.Uint32(b[16:20]),
		DstLen:   b[20],
		SrcAddr:  binary.BigEndian.Uint32(b[21:25]),
		SrcLen:   b[25],
		Action:   b[26],
	}
}

// appendBatchReplyEntry appends the 22-byte reply entry:
//
//	0-1    status code (0 = ok)
//	2-9    rule id
//	10-17  latency ns
//	18     path       19 guaranteed
//	20     violation  21 partitions
func appendBatchReplyEntry(b []byte, e BatchReplyEntry) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(e.Code))
	b = binary.BigEndian.AppendUint64(b, e.Reply.RuleID)
	b = binary.BigEndian.AppendUint64(b, e.Reply.LatencyNS)
	return append(b, e.Reply.Path, boolByte(e.Reply.Guaranteed), boolByte(e.Reply.Violation), e.Reply.Partitions)
}

func decodeBatchReplyEntry(b []byte) BatchReplyEntry {
	return BatchReplyEntry{
		Code: ErrorCode(binary.BigEndian.Uint16(b[0:2])),
		Reply: FlowModReply{
			RuleID:     binary.BigEndian.Uint64(b[2:10]),
			LatencyNS:  binary.BigEndian.Uint64(b[10:18]),
			Path:       b[18],
			Guaranteed: b[19] != 0,
			Violation:  b[20] != 0,
			Partitions: b[21],
		},
	}
}

// ReadMessage reads and decodes one frame.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[0])
	}
	m := &Message{Header: Header{
		Version: hdr[0],
		Type:    MsgType(hdr[1]),
		Length:  binary.BigEndian.Uint16(hdr[2:4]),
		XID:     binary.BigEndian.Uint32(hdr[4:8]),
	}}
	if int(m.Header.Length) < headerLen {
		return nil, ErrTruncated
	}
	body := make([]byte, int(m.Header.Length)-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTruncated, err)
	}
	return m, decodeBody(m, body)
}

func decodeBody(m *Message, body []byte) error {
	switch m.Header.Type {
	case TypeHello, TypeBarrierRequest, TypeBarrierReply, TypeStatsRequest:
		return nil
	case TypeEchoRequest, TypeEchoReply:
		m.Raw = body
		return nil
	case TypeFlowMod:
		f, err := decodeFlowModFixed(body)
		m.FlowMod = f
		return err
	case TypeFlowModReply:
		if len(body) < flowModReplyLen {
			return ErrTruncated
		}
		m.FlowModReply = &FlowModReply{
			RuleID:     binary.BigEndian.Uint64(body[0:8]),
			LatencyNS:  binary.BigEndian.Uint64(body[8:16]),
			Path:       body[16],
			Guaranteed: body[17] != 0,
			Violation:  body[18] != 0,
			Partitions: body[19],
		}
		return nil
	case TypeStatsReply:
		if len(body) < statsLen+8 {
			return ErrTruncated
		}
		m.Stats = &Stats{
			Inserts:       binary.BigEndian.Uint64(body[0:8]),
			ShadowInserts: binary.BigEndian.Uint64(body[8:16]),
			MainInserts:   binary.BigEndian.Uint64(body[16:24]),
			Bypasses:      binary.BigEndian.Uint64(body[24:32]),
			Violations:    binary.BigEndian.Uint64(body[32:40]),
			Migrations:    binary.BigEndian.Uint64(body[40:48]),
			ShadowOcc:     binary.BigEndian.Uint32(body[48:52]),
			MainOcc:       binary.BigEndian.Uint32(body[52:56]),
			ShadowSize:    binary.BigEndian.Uint32(body[56:60]),
			OverheadPPM:   binary.BigEndian.Uint32(body[60:64]),
			MaxRateMilli:  binary.BigEndian.Uint64(body[64:72]),
		}
		return nil
	case TypeQoSRequest:
		if len(body) < qosRequestLen {
			return ErrTruncated
		}
		m.QoSRequest = &QoSRequest{GuaranteeNS: binary.BigEndian.Uint64(body)}
		return nil
	case TypeQoSReply:
		if len(body) < qosReplyLen {
			return ErrTruncated
		}
		m.QoSReply = &QoSReply{
			ShadowEntries: binary.BigEndian.Uint32(body[0:4]),
			OverheadPPM:   binary.BigEndian.Uint32(body[4:8]),
			MaxRateMilli:  binary.BigEndian.Uint64(body[8:16]),
			GuaranteeNS:   binary.BigEndian.Uint64(body[16:24]),
		}
		return nil
	case TypeError:
		if len(body) < errorFixedLen {
			return ErrTruncated
		}
		m.Error = &ErrorBody{
			Code:   ErrorCode(binary.BigEndian.Uint16(body[0:2])),
			Reason: string(body[2:]),
		}
		return nil
	case TypeFlowModBatch:
		if len(body) < batchFixedLen {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < batchFixedLen+n*flowModLen {
			return ErrTruncated
		}
		fb := &FlowModBatch{}
		if n > 0 {
			fb.Ops = make([]FlowMod, n)
			for i := range fb.Ops {
				fb.Ops[i] = decodeFlowModValue(body[batchFixedLen+i*flowModLen:])
			}
		}
		m.FlowModBatch = fb
		return nil
	case TypeFlowModBatchReply:
		if len(body) < batchFixedLen {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < batchFixedLen+n*batchReplyEntryLen {
			return ErrTruncated
		}
		fb := &FlowModBatchReply{}
		if n > 0 {
			fb.Entries = make([]BatchReplyEntry, n)
			for i := range fb.Entries {
				fb.Entries[i] = decodeBatchReplyEntry(body[batchFixedLen+i*batchReplyEntryLen:])
			}
		}
		m.FlowModBatchReply = fb
		return nil
	case TypeRulesRequest:
		if len(body) < rulesRequestLen {
			return ErrTruncated
		}
		m.RulesRequest = &RulesRequest{
			After: binary.BigEndian.Uint64(body[0:8]),
			Max:   binary.BigEndian.Uint16(body[8:10]),
		}
		return nil
	case TypeRulesReply:
		if len(body) < rulesReplyFixedLen+1 {
			return ErrTruncated
		}
		n := int(binary.BigEndian.Uint16(body[0:2]))
		if len(body) < rulesReplyFixedLen+1+n*ruleEntryLen {
			return ErrTruncated
		}
		q := &RulesReply{More: body[2] != 0}
		if n > 0 {
			q.Rules = make([]RuleEntry, n)
			for i := range q.Rules {
				q.Rules[i] = decodeRuleEntry(body[rulesReplyFixedLen+1+i*ruleEntryLen:])
			}
		}
		m.RulesReply = q
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrBadType, m.Header.Type)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// clampU16 saturates v into a 16-bit wire field. Values that exceed a
// field's range must saturate, never wrap — wrapping is the defect class
// behind the 64KiB frame-length bug.
func clampU16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > 0xFFFF {
		return 0xFFFF
	}
	return uint16(v)
}

// clampU8 saturates v into an 8-bit wire field.
func clampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 0xFF {
		return 0xFF
	}
	return uint8(v)
}

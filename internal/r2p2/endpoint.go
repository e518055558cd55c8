package r2p2

import (
	"encoding/binary"
	"time"

	"hovercraft/internal/wire"
)

// MakeMsg builds the datagrams of an arbitrary R2P2 message. port and
// reqID identify the message within the sender's namespace (for
// request/response matching and reassembly); maxPayload <= 0 means
// MaxFragPayload.
func MakeMsg(t MessageType, policy Policy, port uint16, reqID uint32, payload []byte, maxPayload int) [][]byte {
	h := Header{Type: t, Policy: policy, SrcPort: port, ReqID: reqID}
	return Fragment(h, payload, maxPayload)
}

// AppendMsgBufs is MakeMsg into pooled wire buffers (see AppendFragBufs
// for the reference contract).
func AppendMsgBufs(dst []*wire.Buf, t MessageType, policy Policy, port uint16, reqID uint32, payload []byte, maxPayload int) []*wire.Buf {
	h := Header{Type: t, Policy: policy, SrcPort: port, ReqID: reqID}
	return AppendFragBufs(dst, h, payload, maxPayload)
}

// MakeResponse builds the datagrams of a response to the request
// identified by id. The response carries the *request's* (port, req_id),
// which is how the client matches it even when the replier is not the
// host the request was sent to — the mechanism behind HovercRaft's reply
// load balancing.
func MakeResponse(id RequestID, payload []byte, maxPayload int) [][]byte {
	h := Header{Type: TypeResponse, SrcPort: id.SrcPort, ReqID: id.ReqID}
	return Fragment(h, payload, maxPayload)
}

// AppendResponseBufs is MakeResponse into pooled wire buffers.
func AppendResponseBufs(dst []*wire.Buf, id RequestID, payload []byte, maxPayload int) []*wire.Buf {
	h := Header{Type: TypeResponse, SrcPort: id.SrcPort, ReqID: id.ReqID}
	return AppendFragBufs(dst, h, payload, maxPayload)
}

// MakeFeedback builds the single-datagram FEEDBACK message for the given
// request, sent to the flow-control middlebox when a reply is emitted.
func MakeFeedback(id RequestID) []byte {
	h := Header{Type: TypeFeedback, SrcPort: id.SrcPort, ReqID: id.ReqID, PktCount: 1, Flags: FlagFirst | FlagLast}
	h.PktID = 0
	return h.Marshal(nil)
}

// FeedbackRecordSize is the payload footprint of one extra request in a
// coalesced FEEDBACK datagram: (src_port, req_id).
const FeedbackRecordSize = 6

// maxFeedbackIDs caps how many request IDs one FEEDBACK datagram covers
// (header slot + as many records as fit a single-MTU payload).
const maxFeedbackIDs = 1 + MaxFragPayload/FeedbackRecordSize

// AppendFeedbackBufs builds coalesced FEEDBACK datagrams covering every
// id, into pooled wire buffers. The header carries ids[0] the way a
// single feedback always has; each further id rides as a
// FeedbackRecordSize payload record, so one datagram releases many
// middlebox slots. Overflow past a single MTU spills into additional
// datagrams (at maxFeedbackIDs ≈ 240 per datagram the spill is
// essentially theoretical).
func AppendFeedbackBufs(dst []*wire.Buf, ids []RequestID) []*wire.Buf {
	for len(ids) > 0 {
		n := len(ids)
		if n > maxFeedbackIDs {
			n = maxFeedbackIDs
		}
		h := Header{Type: TypeFeedback, SrcPort: ids[0].SrcPort, ReqID: ids[0].ReqID,
			PktCount: 1, Flags: FlagFirst | FlagLast}
		b := wire.Get(HeaderSize + (n-1)*FeedbackRecordSize)
		b.B = h.Marshal(b.B)
		for _, id := range ids[1:n] {
			var rec [FeedbackRecordSize]byte
			binary.BigEndian.PutUint16(rec[0:2], id.SrcPort)
			binary.BigEndian.PutUint32(rec[2:6], id.ReqID)
			b.B = append(b.B, rec[:]...)
		}
		dst = append(dst, b)
		ids = ids[n:]
	}
	return dst
}

// FeedbackRecordCount returns how many extra request records a FEEDBACK
// payload carries (beyond the one in the header).
func FeedbackRecordCount(payload []byte) int { return len(payload) / FeedbackRecordSize }

// FeedbackRecordAt decodes extra record i of a coalesced FEEDBACK payload.
func FeedbackRecordAt(payload []byte, i int) (port uint16, req uint32) {
	rec := payload[i*FeedbackRecordSize:]
	return binary.BigEndian.Uint16(rec[0:2]), binary.BigEndian.Uint32(rec[2:6])
}

// MakeNack builds the single-datagram NACK for the given request, sent by
// the middlebox to a client whose request was shed.
func MakeNack(id RequestID) []byte {
	h := Header{Type: TypeNack, SrcPort: id.SrcPort, ReqID: id.ReqID, PktCount: 1, Flags: FlagFirst | FlagLast}
	return h.Marshal(nil)
}

// MakeNackBuf is MakeNack into a pooled wire buffer.
func MakeNackBuf(id RequestID) *wire.Buf {
	h := Header{Type: TypeNack, SrcPort: id.SrcPort, ReqID: id.ReqID, PktCount: 1, Flags: FlagFirst | FlagLast}
	b := wire.Get(HeaderSize)
	b.B = h.Marshal(b.B)
	return b
}

// RetryAfterUnit is the quantum of the NACK retry-after hint: the hint
// byte counts these units, so one byte spans 64µs .. ~16.3ms — the
// useful backoff range between "one service time" and "wait out a
// leader election".
const RetryAfterUnit = 64 * time.Microsecond

// EncodeRetryAfter quantizes a backoff hint into the NACK payload byte
// (rounding up, saturating at 255). Zero means "no hint".
func EncodeRetryAfter(d time.Duration) byte {
	if d <= 0 {
		return 0
	}
	u := (d + RetryAfterUnit - 1) / RetryAfterUnit
	if u > 255 {
		u = 255
	}
	return byte(u)
}

// DecodeRetryAfter expands a hint byte back into a duration; 0 → 0.
func DecodeRetryAfter(b byte) time.Duration {
	return time.Duration(b) * RetryAfterUnit
}

// MakeNackHint builds a NACK carrying a one-byte retry-after hint as
// payload. A zero hint degrades to the classic empty NACK, and old
// receivers that ignore the payload parse a hinted NACK unchanged — the
// header layout is identical, so the extension is wire-compatible in
// both directions.
func MakeNackHint(id RequestID, hint byte) []byte {
	if hint == 0 {
		return MakeNack(id)
	}
	h := Header{Type: TypeNack, SrcPort: id.SrcPort, ReqID: id.ReqID, PktCount: 1, Flags: FlagFirst | FlagLast}
	return append(h.Marshal(nil), hint)
}

// MakeNackHintBuf is MakeNackHint into a pooled wire buffer.
func MakeNackHintBuf(id RequestID, hint byte) *wire.Buf {
	h := Header{Type: TypeNack, SrcPort: id.SrcPort, ReqID: id.ReqID, PktCount: 1, Flags: FlagFirst | FlagLast}
	n := HeaderSize
	if hint != 0 {
		n++
	}
	b := wire.Get(n)
	b.B = h.Marshal(b.B)
	if hint != 0 {
		b.B = append(b.B, hint)
	}
	return b
}

// NackRetryAfter extracts the retry-after hint from a NACK datagram's
// payload (the bytes after the header). Empty payload — the pre-hint
// wire format — yields zero, "no hint".
func NackRetryAfter(payload []byte) time.Duration {
	if len(payload) == 0 {
		return 0
	}
	return DecodeRetryAfter(payload[0])
}

// Client allocates request identifiers and builds request datagrams for
// one (ip, port) client endpoint. Not safe for concurrent use.
type Client struct {
	IP   uint32
	Port uint16
	// MaxPayload caps per-fragment payload; 0 means MaxFragPayload.
	MaxPayload int

	nextReq uint32
}

// NewClient returns a client endpoint.
func NewClient(ip uint32, port uint16) *Client {
	return &Client{IP: ip, Port: port}
}

// NewRequest builds a request and returns its identity and datagrams.
func (c *Client) NewRequest(policy Policy, payload []byte) (RequestID, [][]byte) {
	c.nextReq++
	id := RequestID{SrcIP: c.IP, SrcPort: c.Port, ReqID: c.nextReq}
	dgs := MakeMsg(TypeRequest, policy, c.Port, c.nextReq, payload, c.MaxPayload)
	return id, dgs
}

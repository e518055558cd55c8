package raft

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hovercraft/internal/r2p2"
)

// Wire format of Raft messages. Sizes matter in this codebase: the whole
// point of HovercRaft's replication/ordering separation is that
// AppendEntries messages shrink to fixed-size per-entry metadata, so the
// evaluation transports real encoded bytes and the codec is written to
// make the metadata-only entry encoding compact (43 bytes/entry).

// ErrBadMessage reports a malformed Raft wire message.
var ErrBadMessage = errors.New("raft: malformed wire message")

const (
	msgFixedSize   = 1 + 4 + 4 + 8 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8 + 4 + 4 // 82
	entryFixedSize = 8 + 8 + 1 + 4 + 10 + 8 + 4                            // 43
	// nilData marks an absent request body (metadata-only entry) as
	// opposed to a present-but-empty one.
	nilData = 0xFFFFFFFF
)

// flag bits
const (
	wireSuccess = 1 << 0
)

// EncodeMessage serializes m, appending to buf.
func EncodeMessage(m *Message, buf []byte) []byte {
	var fix [msgFixedSize]byte
	fix[0] = byte(m.Type)
	binary.BigEndian.PutUint32(fix[1:5], uint32(m.From))
	binary.BigEndian.PutUint32(fix[5:9], uint32(m.To))
	binary.BigEndian.PutUint64(fix[9:17], m.Term)
	binary.BigEndian.PutUint64(fix[17:25], m.Index)
	binary.BigEndian.PutUint64(fix[25:33], m.LogTerm)
	binary.BigEndian.PutUint64(fix[33:41], m.Commit)
	if m.Success {
		fix[41] |= wireSuccess
	}
	binary.BigEndian.PutUint64(fix[42:50], m.MatchIndex)
	binary.BigEndian.PutUint64(fix[50:58], m.RejectHint)
	binary.BigEndian.PutUint64(fix[58:66], m.AppliedIndex)
	binary.BigEndian.PutUint64(fix[66:74], m.Probe)
	binary.BigEndian.PutUint32(fix[74:78], uint32(len(m.Entries)))
	snapLen := uint32(nilData)
	if m.SnapData != nil {
		snapLen = uint32(len(m.SnapData))
	}
	binary.BigEndian.PutUint32(fix[78:82], snapLen)
	buf = append(buf, fix[:]...)
	for i := range m.Entries {
		buf = encodeEntry(&m.Entries[i], buf)
	}
	if m.SnapData != nil {
		buf = append(buf, m.SnapData...)
	}
	return buf
}

func encodeEntry(e *Entry, buf []byte) []byte {
	var fix [entryFixedSize]byte
	binary.BigEndian.PutUint64(fix[0:8], e.Term)
	binary.BigEndian.PutUint64(fix[8:16], e.Index)
	fix[16] = byte(e.Kind)
	binary.BigEndian.PutUint32(fix[17:21], uint32(e.Replier))
	binary.BigEndian.PutUint32(fix[21:25], e.ID.SrcIP)
	binary.BigEndian.PutUint16(fix[25:27], e.ID.SrcPort)
	binary.BigEndian.PutUint32(fix[27:31], e.ID.ReqID)
	binary.BigEndian.PutUint64(fix[31:39], e.BodyHash)
	dataLen := uint32(nilData)
	if e.Data != nil {
		dataLen = uint32(len(e.Data))
	}
	binary.BigEndian.PutUint32(fix[39:43], dataLen)
	buf = append(buf, fix[:]...)
	if e.Data != nil {
		buf = append(buf, e.Data...)
	}
	return buf
}

// DecodeMessage parses a message produced by EncodeMessage.
func DecodeMessage(b []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeMessageInto(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeMessageInto parses a message produced by EncodeMessage into m,
// overwriting every field. The entries are decoded into m.Entries'
// backing array when it has room, so a caller that decodes into one
// scratch message, and lets nothing keep m.Entries past its step,
// decodes without allocating the message or its entry slice.
func DecodeMessageInto(b []byte, m *Message) error {
	if len(b) < msgFixedSize {
		return ErrBadMessage
	}
	ents := m.Entries[:0]
	*m = Message{
		Type:         MsgType(b[0]),
		From:         NodeID(binary.BigEndian.Uint32(b[1:5])),
		To:           NodeID(binary.BigEndian.Uint32(b[5:9])),
		Term:         binary.BigEndian.Uint64(b[9:17]),
		Index:        binary.BigEndian.Uint64(b[17:25]),
		LogTerm:      binary.BigEndian.Uint64(b[25:33]),
		Commit:       binary.BigEndian.Uint64(b[33:41]),
		Success:      b[41]&wireSuccess != 0,
		MatchIndex:   binary.BigEndian.Uint64(b[42:50]),
		RejectHint:   binary.BigEndian.Uint64(b[50:58]),
		AppliedIndex: binary.BigEndian.Uint64(b[58:66]),
		Probe:        binary.BigEndian.Uint64(b[66:74]),
	}
	if m.Type >= numMsgTypes {
		return ErrBadMessage
	}
	nEntries := binary.BigEndian.Uint32(b[74:78])
	snapLen := binary.BigEndian.Uint32(b[78:82])
	rest := b[msgFixedSize:]
	if nEntries > 0 {
		if nEntries > 1<<20 {
			return ErrBadMessage
		}
		if cap(ents) < int(nEntries) {
			ents = make([]Entry, 0, nEntries)
		}
		for i := uint32(0); i < nEntries; i++ {
			e, n, err := decodeEntry(rest)
			if err != nil {
				return err
			}
			ents = append(ents, e)
			rest = rest[n:]
		}
	}
	m.Entries = ents // empty, not nil, when m had entry storage
	if snapLen != nilData {
		if uint32(len(rest)) < snapLen {
			return ErrBadMessage
		}
		m.SnapData = make([]byte, snapLen)
		copy(m.SnapData, rest[:snapLen])
		rest = rest[snapLen:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return nil
}

func decodeEntry(b []byte) (Entry, int, error) {
	if len(b) < entryFixedSize {
		return Entry{}, 0, ErrBadMessage
	}
	e := Entry{
		Term:  binary.BigEndian.Uint64(b[0:8]),
		Index: binary.BigEndian.Uint64(b[8:16]),
		Kind:  EntryKind(b[16]),
		Replier: NodeID(
			binary.BigEndian.Uint32(b[17:21])),
		ID: r2p2.RequestID{
			SrcIP:   binary.BigEndian.Uint32(b[21:25]),
			SrcPort: binary.BigEndian.Uint16(b[25:27]),
			ReqID:   binary.BigEndian.Uint32(b[27:31]),
		},
		BodyHash: binary.BigEndian.Uint64(b[31:39]),
	}
	dataLen := binary.BigEndian.Uint32(b[39:43])
	n := entryFixedSize
	if dataLen != nilData {
		if uint32(len(b)-entryFixedSize) < dataLen {
			return Entry{}, 0, ErrBadMessage
		}
		e.Data = make([]byte, dataLen)
		copy(e.Data, b[entryFixedSize:entryFixedSize+int(dataLen)])
		n += int(dataLen)
	}
	return e, n, nil
}

// EncodeEntry serializes a single entry, appending to buf (used by the
// HovercRaft recovery protocol, which ships request bodies outside
// AppendEntries).
func EncodeEntry(e *Entry, buf []byte) []byte { return encodeEntry(e, buf) }

// DecodeEntry parses one entry from b, returning it and the bytes consumed.
func DecodeEntry(b []byte) (Entry, int, error) { return decodeEntry(b) }

// StripBodies returns a copy of entries with Data removed — the
// metadata-only form HovercRaft replicates (§3.2). Noop entries never
// carry data in the first place.
// EntryWireSize returns the encoded size of one entry: the fixed
// metadata plus any carried data bytes (43 bytes for a body-stripped
// HovercRaft metadata entry).
func EntryWireSize(e *Entry) int { return entryFixedSize + len(e.Data) }

func StripBodies(entries []Entry) []Entry {
	out := make([]Entry, len(entries))
	copy(out, entries)
	for i := range out {
		out[i].Data = nil
	}
	return out
}

// EncodedSize returns the wire size of m without building the buffer
// (used by the simulator to account bandwidth cheaply).
func EncodedSize(m *Message) int {
	sz := msgFixedSize + len(m.SnapData)
	for i := range m.Entries {
		sz += entryFixedSize + len(m.Entries[i].Data)
	}
	return sz
}

// Hash64 is the FNV-1a hash used for entry body hashes.
func Hash64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

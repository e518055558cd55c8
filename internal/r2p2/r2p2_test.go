package r2p2

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Type: TypeRaftReq, Policy: PolicyReplicatedRO, Flags: FlagFirst,
		SrcPort: 4242, ReqID: 0xDEADBEEF, PktID: 3, PktCount: 9,
	}
	b := h.Marshal(nil)
	if len(b) != HeaderSize {
		t.Fatalf("marshal len = %d", len(b))
	}
	var g Header
	if err := g.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(tp, pol uint8, flags uint8, port uint16, req uint32, pid, pcnt uint16) bool {
		h := Header{
			Type:    MessageType(tp % uint8(numMessageTypes)),
			Policy:  Policy(pol % uint8(numPolicies)),
			Flags:   flags,
			SrcPort: port,
			ReqID:   req,
			PktID:   pid,
			PktCount: func() uint16 {
				if pcnt == 0 {
					return 1
				}
				return pcnt
			}(),
		}
		if h.PktID >= h.PktCount {
			h.PktID = h.PktCount - 1
		}
		var g Header
		if err := g.Unmarshal(h.Marshal(nil)); err != nil {
			return false
		}
		return g == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderUnmarshalErrors(t *testing.T) {
	var h Header
	if err := h.Unmarshal(make([]byte, 5)); err != ErrShortPacket {
		t.Fatalf("short: %v", err)
	}
	gh := Header{Type: TypeRequest, PktCount: 1}
	good := gh.Marshal(nil)
	bad := append([]byte(nil), good...)
	bad[0] = 0x00
	if err := h.Unmarshal(bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[2] = 99
	if err := h.Unmarshal(bad); err != ErrBadType {
		t.Fatalf("type: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[3] = 99
	if err := h.Unmarshal(bad); err != ErrBadPolicy {
		t.Fatalf("policy: %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[14], bad[15] = 0, 0 // PktCount = 0
	if err := h.Unmarshal(bad); err != ErrBadFragment {
		t.Fatalf("fragment: %v", err)
	}
}

func TestMarshalHelper(t *testing.T) {
	h := Header{Type: TypeRequest, PktCount: 1}
	pre := []byte{1, 2, 3}
	out := h.Marshal(pre)
	if len(out) != 3+HeaderSize || out[0] != 1 {
		t.Fatalf("marshal append broken: %v", out)
	}
}

func TestFragmentSingle(t *testing.T) {
	payload := []byte("small")
	dgs := Fragment(Header{Type: TypeRequest, SrcPort: 1, ReqID: 2}, payload, 0)
	if len(dgs) != 1 {
		t.Fatalf("fragments = %d", len(dgs))
	}
	var h Header
	if err := h.Unmarshal(dgs[0]); err != nil {
		t.Fatal(err)
	}
	if h.PktCount != 1 || h.Flags != FlagFirst|FlagLast {
		t.Fatalf("hdr = %+v", h)
	}
}

func TestFragmentEmptyPayload(t *testing.T) {
	dgs := Fragment(Header{Type: TypeFeedback}, nil, 0)
	if len(dgs) != 1 || len(dgs[0]) != HeaderSize {
		t.Fatalf("empty payload fragmenting broken: %d frags", len(dgs))
	}
}

func TestFragmentReassembleRoundTrip(t *testing.T) {
	payload := make([]byte, 6000) // ~5 fragments at MTU
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	dgs := Fragment(Header{Type: TypeResponse, SrcPort: 9, ReqID: 77}, payload, 0)
	if len(dgs) < 4 {
		t.Fatalf("fragments = %d, want >=4", len(dgs))
	}
	r := NewReassembler(time.Second)
	var msg *Msg
	for i, dg := range dgs {
		m, err := r.Ingest(dg, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if i < len(dgs)-1 && m != nil {
			t.Fatal("completed early")
		}
		if m != nil {
			msg = m
		}
	}
	if msg == nil {
		t.Fatal("never completed")
	}
	if !bytes.Equal(msg.Payload, payload) {
		t.Fatal("payload corrupted")
	}
	if msg.ID != (RequestID{SrcIP: 5, SrcPort: 9, ReqID: 77}) {
		t.Fatalf("id = %v", msg.ID)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d", r.Pending())
	}
}

func TestReassembleOutOfOrderAndDup(t *testing.T) {
	payload := make([]byte, 4000)
	for i := range payload {
		payload[i] = byte(i)
	}
	dgs := Fragment(Header{Type: TypeRequest, ReqID: 1}, payload, 1000)
	r := NewReassembler(time.Second)
	order := []int{3, 0, 0, 2, 2, 1} // dup + reorder
	var msg *Msg
	for _, i := range order {
		m, err := r.Ingest(dgs[i], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			msg = m
		}
	}
	if msg == nil || !bytes.Equal(msg.Payload, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassembleRoundTripProperty(t *testing.T) {
	f := func(data []byte, maxRaw uint8) bool {
		max := int(maxRaw%64) + 1
		dgs := Fragment(Header{Type: TypeRequest, ReqID: 42}, data, max)
		r := NewReassembler(time.Second)
		var msg *Msg
		for _, dg := range dgs {
			m, err := r.Ingest(dg, 3, 0)
			if err != nil {
				return false
			}
			if m != nil {
				msg = m
			}
		}
		return msg != nil && bytes.Equal(msg.Payload, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerGC(t *testing.T) {
	payload := make([]byte, 3000)
	dgs := Fragment(Header{Type: TypeRequest, ReqID: 5}, payload, 1000)
	r := NewReassembler(10 * time.Millisecond)
	if _, err := r.Ingest(dgs[0], 1, 0); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d", r.Pending())
	}
	if n := r.GC(5 * time.Millisecond); n != 0 {
		t.Fatalf("gc early = %d", n)
	}
	if n := r.GC(20 * time.Millisecond); n != 1 {
		t.Fatalf("gc = %d", n)
	}
	if r.Pending() != 0 {
		t.Fatal("pending after gc")
	}
}

func TestReassemblerDistinguishesTypes(t *testing.T) {
	// A request and response with the same (ip, port, reqid) must not be
	// mixed during reassembly.
	req := Fragment(Header{Type: TypeRequest, ReqID: 7, SrcPort: 1}, make([]byte, 2000), 1000)
	resp := Fragment(Header{Type: TypeResponse, ReqID: 7, SrcPort: 1}, make([]byte, 2000), 1000)
	r := NewReassembler(time.Second)
	m1, _ := r.Ingest(req[0], 1, 0)
	m2, _ := r.Ingest(resp[0], 1, 0)
	if m1 != nil || m2 != nil {
		t.Fatal("premature completion")
	}
	if r.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 distinct reassemblies", r.Pending())
	}
}

func TestWireBytes(t *testing.T) {
	if got := WireBytes(0); got != HeaderSize+FrameOverhead {
		t.Fatalf("empty = %d", got)
	}
	if got := WireBytes(24); got != 24+HeaderSize+FrameOverhead {
		t.Fatalf("24B = %d", got)
	}
	// 6000B payload: 5 fragments.
	frags := (6000 + MaxFragPayload - 1) / MaxFragPayload
	if got := WireBytes(6000); got != 6000+frags*(HeaderSize+FrameOverhead) {
		t.Fatalf("6000B = %d (frags=%d)", got, frags)
	}
}

func TestClientRequestIDsUnique(t *testing.T) {
	c := NewClient(10, 99)
	seen := map[RequestID]bool{}
	for i := 0; i < 1000; i++ {
		id, dgs := c.NewRequest(PolicyReplicated, []byte("x"))
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
		if len(dgs) != 1 {
			t.Fatalf("dgs = %d", len(dgs))
		}
	}
}

func TestResponseMatchesRequestID(t *testing.T) {
	c := NewClient(10, 99)
	id, _ := c.NewRequest(PolicyReplicatedRO, []byte("query"))
	// A different node (ip 22) replies.
	dgs := MakeResponse(id, []byte("answer"), 0)
	r := NewReassembler(time.Second)
	m, err := r.Ingest(dgs[0], 22, 0)
	if err != nil || m == nil {
		t.Fatalf("ingest: %v %v", m, err)
	}
	if m.Type != TypeResponse {
		t.Fatalf("type = %v", m.Type)
	}
	// Client-side matching is by (port, reqID) which must equal the
	// original request's.
	if m.ID.SrcPort != id.SrcPort || m.ID.ReqID != id.ReqID {
		t.Fatalf("response id %v does not match request %v", m.ID, id)
	}
	if string(m.Payload) != "answer" {
		t.Fatalf("payload = %q", m.Payload)
	}
}

func TestFeedbackAndNack(t *testing.T) {
	id := RequestID{SrcIP: 1, SrcPort: 2, ReqID: 3}
	r := NewReassembler(time.Second)
	m, err := r.Ingest(MakeFeedback(id), 7, 0)
	if err != nil || m == nil || m.Type != TypeFeedback {
		t.Fatalf("feedback: %v %v", m, err)
	}
	m, err = r.Ingest(MakeNack(id), 7, 0)
	if err != nil || m == nil || m.Type != TypeNack {
		t.Fatalf("nack: %v %v", m, err)
	}
	if m.ID.SrcPort != 2 || m.ID.ReqID != 3 {
		t.Fatalf("nack id = %v", m.ID)
	}
}

func TestStringers(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{TypeRequest.String(), "REQUEST"},
		{TypeNack.String(), "NACK"},
		{MessageType(200).String(), "TYPE(200)"},
		{PolicyReplicated.String(), "REPLICATED_REQ"},
		{PolicyReplicatedRO.String(), "REPLICATED_REQ_R"},
		{Policy(200).String(), "POLICY(200)"},
		{RequestID{1, 2, 3}.String(), "1:2/3"},
	} {
		if tc.got != tc.want {
			t.Errorf("got %q want %q", tc.got, tc.want)
		}
	}
}

func TestMsgIsReadOnly(t *testing.T) {
	m := Msg{Policy: PolicyReplicatedRO}
	if !m.IsReadOnly() {
		t.Fatal("RO not detected")
	}
	m.Policy = PolicyReplicated
	if m.IsReadOnly() {
		t.Fatal("RW misdetected")
	}
}

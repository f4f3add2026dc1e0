package obs

import (
	"fmt"
	"io"
	"sort"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// String renders the event as one line of protocol story: the time, then
// for a send the message with the fields its type carries, and for a
// lifecycle event its kind, node and line.
func (e *Event) String() string {
	at := uint64(e.At)
	switch e.Kind {
	case KindSend:
		m := &e.Msg
		base := fmt.Sprintf("[%10d] send %-15s %2d -> %-2d line %#x", at, m.Type, m.Src, m.Dst, uint64(m.Addr))
		switch m.Type {
		case msg.ExclReply, msg.UpgradeAck, msg.Delegate:
			return fmt.Sprintf("%s  (acks=%d v=%d)", base, m.AckCount, m.Version)
		case msg.SharedReply, msg.SharedResponse, msg.ExclResponse, msg.Update,
			msg.SharedWriteback, msg.Writeback, msg.Undelegate:
			return fmt.Sprintf("%s  (v=%d)", base, m.Version)
		case msg.Intervention, msg.TransferReq:
			return fmt.Sprintf("%s  (for node %d, epoch %d)", base, m.Requester, m.GrantTxn)
		case msg.Invalidate, msg.InvAck:
			return fmt.Sprintf("%s  (for node %d)", base, m.Requester)
		case msg.NewHomeHint:
			return fmt.Sprintf("%s  (new home %d)", base, m.Owner)
		}
		return base
	case KindUndelegate:
		return fmt.Sprintf("[%10d] %s n%d line %#x cause=%s",
			at, e.Kind, e.Node, uint64(e.Addr), stats.UndelegateReason(e.Arg))
	}
	return fmt.Sprintf("[%10d] %s n%d line %#x", at, e.Kind, e.Node, uint64(e.Addr))
}

// lineStory summarizes one line's sends: counts by message type plus
// when it was delegated and handed back.
type lineStory struct {
	addr        msg.Addr
	first, last sim.Time
	total       int
	counts      [msg.NumTypes]int
	delegations int
	undelegs    int
}

// WriteStories renders the KindSend events of events grouped per line,
// most active lines first: message counts by type and the delegation
// history.
func WriteStories(w io.Writer, events []Event) {
	byLine := make(map[msg.Addr]*lineStory)
	var order []*lineStory
	for i := range events {
		e := &events[i]
		if e.Kind != KindSend {
			continue
		}
		st := byLine[e.Msg.Addr]
		if st == nil {
			st = &lineStory{addr: e.Msg.Addr, first: e.At}
			byLine[e.Msg.Addr] = st
			order = append(order, st)
		}
		st.last = e.At
		st.total++
		st.counts[e.Msg.Type]++
		switch e.Msg.Type {
		case msg.Delegate:
			st.delegations++
		case msg.Undelegate:
			st.undelegs++
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].total != order[j].total {
			return order[i].total > order[j].total
		}
		return order[i].addr < order[j].addr
	})
	for _, st := range order {
		fmt.Fprintf(w, "line %#x: %d msgs over [%d..%d]", uint64(st.addr), st.total, uint64(st.first), uint64(st.last))
		if st.delegations > 0 {
			fmt.Fprintf(w, ", delegated %dx", st.delegations)
		}
		if st.undelegs > 0 {
			fmt.Fprintf(w, ", undelegated %dx", st.undelegs)
		}
		fmt.Fprintln(w)
		for t, n := range st.counts {
			if n > 0 {
				fmt.Fprintf(w, "    %-16s %d\n", msg.Type(t), n)
			}
		}
	}
}

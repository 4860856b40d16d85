// Package bsd models the DEC Unix v3.2c (BSD-derived) TCP/IP input
// organization for the Table 3 comparison: ipintr with the IP header
// checksum inlined, the inbound glue to tcp_input, tcp_input with BSD
// header prediction, and the sowakeup delivery. The paper compares dynamic
// instruction counts of this organization against the improved x-kernel
// implementation and the published 80386 counts of Clark et al. [CJRS89].
//
// Header prediction is the interesting wrinkle: it is a latency
// optimization that only fires for unidirectional connections; on a
// connection with bidirectional data flow (the realistic request-response
// case the paper measures) the prediction test fails and costs a handful of
// extra instructions instead of saving any.
package bsd

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/models"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
)

// Reference80386 carries the published counts from [CJRS89] for the 80386:
// 57 instructions in ipintr; 276 in tcp_input for a bidirectional
// connection (154 common path + 15+17 receive side + 9+20+17+44 sender
// side).
type Reference80386 struct {
	Ipintr   int
	TCPInput int
}

// CJRS89 returns the published 80386 counts.
func CJRS89() Reference80386 { return Reference80386{Ipintr: 57, TCPInput: 276} }

// Models returns the BSD-organized input-path models. The call chain is
// bsd_ipintr -> bsd_ip_glue -> bsd_tcp_input -> bsd_sowakeup.
func Models() []*code.Function {
	return []*code.Function{ipintr(), ipGlue(), tcpInput(), sowakeup()}
}

// ipintr validates the IP header with the checksum *inlined* (the paper
// notes this artificially inflates the DEC Unix ipintr count by 42
// instructions relative to implementations that call a checksum routine).
func ipintr() *code.Function {
	b := code.NewBuilder("bsd_ipintr", code.ClassPath).Frame(4)
	b.ALU(60).Load("bsd.iphdr", 10).Store("bsd.iphdr", 4)
	// Inlined IP header checksum: ~42 instructions.
	b.ALU(30).Load("bsd.iphdr", 12)
	b.Cond("bsd.ipbad", "bad", "opts")
	b.Block("bad").Kind(code.BlockError).ALU(80).Ret()
	b.Block("opts").ALU(40).Load("bsd.iphdr", 6)
	b.Cond("bsd.hasopts", "doopts", "frag")
	b.Block("doopts").ALU(120).Jump("frag")
	b.Block("frag").ALU(30)
	b.Cond("bsd.isfrag", "reasm", "done")
	b.Block("reasm").ALU(200).Store("bsd.ipq", 12).Jump("done")
	b.Block("done").ALU(26).Store("bsd.iphdr", 2)
	b.Call("bsd_ip_glue")
	b.Ret()
	return b.MustBuild()
}

// ipGlue is the protocol-switch dispatch and mbuf adjustment between IP
// input and TCP input (protosw lookup, m_adj, pcb hash probing).
func ipGlue() *code.Function {
	b := code.NewBuilder("bsd_ip_glue", code.ClassPath).Frame(3)
	b.ALU(90).Load("bsd.protosw", 8).Load("bsd.mbuf", 10).Store("bsd.mbuf", 6)
	// in_pcblookup: the BSD pcb hash without the x-kernel's one-entry
	// cache shortcut.
	b.ALU(70).Load("bsd.pcb", 12)
	b.Cond("bsd.pcbmiss", "fullscan", "found")
	b.Block("fullscan").Kind(code.BlockError).ALU(180).Load("bsd.pcb", 20).Ret()
	b.Block("found").ALU(40).Store("bsd.pcb", 4)
	b.Call("bsd_tcp_input")
	b.Ret()
	return b.MustBuild()
}

// tcpInput is BSD tcp_input after in_pcblookup, including the header
// prediction test. On a bidirectional connection the prediction fails —
// both sender and receiver housekeeping run — so the test is pure overhead
// (a dozen instructions, per the paper).
func tcpInput() *code.Function {
	b := code.NewBuilder("bsd_tcp_input", code.ClassPath).Frame(6)
	b.ALU(60).Load("bsd.tcpcb", 14).Load("bsd.tcphdr", 8)
	// Header prediction test: ~12 instructions.
	b.ALU(12)
	b.Cond("bsd.hdrpred", "predicted", "slow")
	// Predicted fast path (unidirectional data only).
	b.Block("predicted").ALU(60).Store("bsd.tcpcb", 8).Call("bsd_sowakeup").Ret()

	// General path: sender-side then receiver-side housekeeping.
	b.Block("slow").ALU(80).Load("bsd.tcpcb", 10)
	b.Cond("bsd.ackadv", "ackproc", "seqproc")
	b.Block("ackproc").ALU(70).Store("bsd.tcpcb", 10).Jump("seqproc")
	b.Block("seqproc").ALU(90).Load("bsd.tcphdr", 6).Store("bsd.tcpcb", 8)
	b.Cond("bsd.inorder", "deliver", "ooo")
	b.Block("ooo").Kind(code.BlockError).ALU(160).Ret()
	b.Block("deliver").ALU(70).Store("bsd.sockbuf", 8)
	b.Call("bsd_sowakeup")
	b.Ret()

	b.Block("rst").Kind(code.BlockError).ALU(90).Ret()
	b.Block("urg").Kind(code.BlockError).ALU(70).Ret()
	return b.MustBuild()
}

// sowakeup wakes the process sleeping on the socket.
func sowakeup() *code.Function {
	b := code.NewBuilder("bsd_sowakeup", code.ClassPath).Frame(2)
	b.ALU(40).Load("bsd.sockbuf", 6).Store("bsd.sockbuf", 4)
	b.Ret()
	return b.MustBuild()
}

// Counts holds measured dynamic instruction counts for the Table 3 rows.
type Counts struct {
	// Ipintr is the count inside ipintr itself.
	Ipintr int
	// TCPInput is the count inside tcp_input after the pcb lookup.
	TCPInput int
	// IPToTCP is the count from IP input entry to TCP input entry.
	IPToTCP int
	// TCPToSocket is the count from TCP input entry to socket delivery.
	TCPToSocket int
	// CPI is the measured cycles per instruction of the run.
	CPI float64
}

// Measure executes the BSD input path once for an established bidirectional
// connection and attributes instructions to the Table 3 regions.
// bidirectional selects whether header prediction fails (true, the paper's
// case) or fires (false).
func Measure(bidirectional bool) (Counts, error) {
	prog := code.NewProgram()
	if err := prog.Add(Models()...); err != nil {
		return Counts{}, err
	}
	if err := prog.Add(models.Library(true)...); err != nil {
		return Counts{}, err
	}
	if err := prog.Link(); err != nil {
		return Counts{}, err
	}

	m := arch.DEC3000_600()
	h := mem.New(m)
	c := cpu.New(h)
	e := code.NewEngine(c, prog)

	env := code.NewBinding()
	env.Set("bsd.hdrpred", !bidirectional)
	env.Set("bsd.ackadv", bidirectional) // sender housekeeping only with data both ways

	inRange := func(fn string, addr uint64) bool {
		pl := prog.Placement(fn)
		if pl == nil {
			return false
		}
		entry, _ := prog.EntryAddr(fn)
		return addr >= entry && addr < pl.End()
	}

	var counts Counts
	seenTCP, seenSock := false, false
	tcpEntry, _ := prog.EntryAddr("bsd_tcp_input")
	sockEntry, _ := prog.EntryAddr("bsd_sowakeup")
	e.Observer = func(en cpu.Entry) {
		switch {
		case inRange("bsd_ipintr", en.Addr):
			counts.Ipintr++
		case inRange("bsd_tcp_input", en.Addr):
			counts.TCPInput++
		}
		if en.Addr == tcpEntry {
			seenTCP = true
		}
		if en.Addr == sockEntry {
			seenSock = true
		}
		switch {
		case !seenTCP:
			counts.IPToTCP++
		case !seenSock:
			counts.TCPToSocket++
		}
	}
	// The CPI comes from the cold first pass: the DEC Unix stack the
	// paper measured runs with an untuned layout inside a busy kernel, so
	// its code does not sit warm in the caches the way the isolated
	// x-kernel's does (the paper measured its mCPI at 2.3 against the
	// optimized x-kernel's 1.17).
	before := c.Metrics()
	if err := e.Run("bsd_ipintr", env); err != nil {
		return Counts{}, err
	}
	counts.CPI = c.Metrics().Sub(before).CPI()
	return counts, nil
}

func (c Counts) String() string {
	return fmt.Sprintf("ipintr=%d tcp_input=%d ip->tcp=%d tcp->sock=%d CPI=%.2f",
		c.Ipintr, c.TCPInput, c.IPToTCP, c.TCPToSocket, c.CPI)
}

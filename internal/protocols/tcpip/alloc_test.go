package tcpip

import (
	"testing"

	"repro/internal/protocols/features"
)

// TestBeginEventAllocCeiling pins the allocations of one event's
// environment rebuild: Host.BeginEvent resetting the recycled binding and
// running the driver and TCP/IP hooks. The hooks push loop counts for
// bcopy.more, cksum.more and div.more every event; the binding keeps those
// count queues across Reset, so what remains are the per-event condition
// closures. A binding that dropped its queues on Reset would allocate a
// queue and its backing array for each of the three names again.
func TestBeginEventAllocCeiling(t *testing.T) {
	client, server, q := newPair(t, features.Original(), true, 5)
	runToCompletion(t, client, server, q, 10000)
	h := client.Host
	frame := make([]byte, 64)
	h.BeginEvent(frame) // steady state: every condition name seen
	allocs := testing.AllocsPerRun(100, func() { h.BeginEvent(frame) })
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("BeginEvent with the TCP/IP hooks allocates %.1f objects, ceiling %d", allocs, ceiling)
	}
	t.Logf("BeginEvent allocates %.1f objects", allocs)
}

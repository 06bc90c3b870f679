// (The waits below poll counters under a wall-clock deadline; the
// armory logic under test stays deterministic.)
//
//mavr:wallclock
package armory

import (
	"errors"
	"testing"
	"time"
)

// TestSlotsBoundAndCloseDrains holds every slot of a two-slot service
// and submits one request: it is admitted and waits, counted as
// submitted and queued but not completed. A Close issued then must not
// return before that submission completes, and freeing a slot lets it
// finish with a verified artifact, not ErrClosed. After Close,
// Randomize fails with ErrClosed.
func TestSlotsBoundAndCloseDrains(t *testing.T) {
	elf, _ := testImage()
	s := New(Config{Workers: 2})
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
	}

	type result struct {
		art *Artifact
		err error
	}
	submitted := make(chan result, 1)
	go func() {
		art, err := s.Randomize(Request{Image: elf, Vehicle: "uav-1"})
		submitted <- result{art, err}
	}()
	waitFor(t, "the submission's admission", func() bool { return s.Stats().Submitted == 1 })
	if st := s.Stats(); st.QueueHighWater != 1 || st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("every slot held: queue high water %d, completed %d, failed %d; want 1, 0, 0",
			st.QueueHighWater, st.Completed, st.Failed)
	}

	// Close records the counters the moment it returns.
	closed := make(chan Stats, 1)
	go func() {
		s.Close()
		closed <- s.Stats()
	}()
	waitFor(t, "Close to stop admissions", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	// Nothing may finish while every slot is held. Correct code passes
	// at any speed; the window gives a service that ignored its slots
	// (its testapp request takes a few milliseconds) time to show it.
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted submission waited for a slot")
	case r := <-submitted:
		t.Fatalf("submission returned (%v) while every slot was held", r.err)
	case <-time.After(100 * time.Millisecond):
	}

	<-s.slots
	var r result
	select {
	case r = <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("submission did not complete after a slot was freed")
	}
	if r.err != nil {
		t.Fatalf("admitted submission after Close: %v, want an artifact", r.err)
	}
	if !r.art.Report.OK() || !VerifySignature(DefaultSecret, r.art.BaseDigest, r.art.PermDigest, r.art.ArtifactDigest, r.art.Signature) {
		t.Fatal("admitted submission's artifact is not verified and signed")
	}
	select {
	case st := <-closed:
		if st.Completed != 1 {
			t.Fatalf("Close returned with %d submissions completed, want 1", st.Completed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the admitted submission completed")
	}
	if _, err := s.Randomize(Request{Image: elf, Vehicle: "uav-2"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Randomize after Close: %v, want ErrClosed", err)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

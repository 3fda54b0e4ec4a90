package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"regcoal/internal/session"
)

// Handlers collapsed onto one apply, peer ships and the lag gauge all
// reach one session's log at once. Every goroutine offers every version
// in order, so each offer is a duplicate or the next version: the log
// must end as one contiguous full log, whatever the interleaving.
func TestSessionLogsConcurrentExtend(t *testing.T) {
	const versions = 32
	sl := newSessionLogs(4)
	if _, err := sl.extend(&session.ExportRecord{SessionID: "s", BaseHash: "h", Create: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := fmt.Sprintf("p%d", g%2)
			for v := int64(1); v <= versions; v++ {
				rec := &session.ExportRecord{SessionID: "s", BaseHash: "h", Version: v,
					Deltas: []json.RawMessage{json.RawMessage(fmt.Sprintf(`{"v":%d}`, v))}}
				if _, err := sl.extend(rec); err != nil {
					t.Errorf("offer of version %d: %v", v, err)
					return
				}
				sl.setBehind("s", peer, v%2 == 0)
				sl.all()
			}
		}()
	}
	wg.Wait()
	rec := sl.get("s")
	if rec == nil || rec.Version != versions || rec.Validate() != nil {
		t.Fatalf("log after the race: %+v", rec)
	}
	for i, d := range rec.Deltas {
		if want := fmt.Sprintf(`{"v":%d}`, i+1); string(d) != want {
			t.Fatalf("delta %d is %s, want %s", i, d, want)
		}
	}
}

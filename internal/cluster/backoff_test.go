package cluster

import "testing"

// Two routers over one worker set draw their retry jitter independently,
// so a storm of retries against a failing replica does not arrive in
// lockstep from every router.
func TestRoutersOverOneWorkerSetDrawDifferentBackoffs(t *testing.T) {
	workers := []string{"http://127.0.0.1:18081", "http://127.0.0.1:18082", "http://127.0.0.1:18083"}
	a, err := NewRouter(RouterConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRouter(RouterConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if a.backoff(3) != b.backoff(3) {
			return
		}
	}
	t.Fatal("two routers over one worker set drew the same backoff 16 times in 16")
}

package service

import (
	"strings"
	"testing"
)

// TestWarmRestartServesFromDisk is the tentpole's end-to-end contract: a
// server restarted over the same -cache-dir answers a previously seen
// request from the persistent tier — no solver run, no matrix build — and a
// new method over a known profile restores the precedence matrix from disk.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := testRequest("fair-borda", 21)

	s1, ts1 := newTestServer(t, Config{CacheDir: dir})
	status, first := post(t, ts1.URL, req)
	if status != 200 || first.Cached {
		t.Fatalf("cold request: status=%d cached=%v", status, first != nil && first.Cached)
	}
	if cs, ms := s1.cache.Stats(), s1.prec.Stats(); cs.DiskPuts != 1 || ms.DiskPuts != 1 {
		t.Fatalf("write-through: %+v / %+v, want one put per tier", cs, ms)
	}
	ts1.Close()
	s1.Close() // snapshot flush + store close

	// The "restarted daemon": fresh process state, same cache directory.
	s2, ts2 := newTestServer(t, Config{CacheDir: dir})
	status, warm := post(t, ts2.URL, req)
	if status != 200 || !warm.Cached {
		t.Fatalf("restarted request: status=%d cached=%v, want disk-warm hit", status, warm != nil && warm.Cached)
	}
	if warm.Digest != first.Digest {
		t.Fatal("digest changed across restart")
	}
	if len(warm.Ranking) != len(first.Ranking) {
		t.Fatalf("restored ranking has %d candidates, want %d", len(warm.Ranking), len(first.Ranking))
	}
	for i, c := range first.Ranking {
		if warm.Ranking[i] != c {
			t.Fatalf("restored ranking differs at position %d", i)
		}
	}
	if cs := s2.cache.Stats(); cs.DiskHits != 1 || cs.Hits != 0 {
		t.Fatalf("restart cache stats = %+v, want exactly one disk hit", cs)
	}
	if builds := s2.prec.Stats().Builds; builds != 0 {
		t.Fatalf("restart rebuilt %d matrices for a result-tier hit", builds)
	}

	// A NEW method over the already-seen profile misses the result tier but
	// restores the persisted precedence matrix instead of rebuilding it.
	other := testRequest("copeland", 21) // same seed -> same profile sub-digest
	if status, resp := post(t, ts2.URL, other); status != 200 || resp.Cached {
		t.Fatalf("new-method request: status=%d cached=%v", status, resp != nil && resp.Cached)
	}
	ms := s2.prec.Stats()
	if ms.DiskHits != 1 || ms.Builds != 0 {
		t.Fatalf("matrix stats = %+v, want the matrix restored from disk, not rebuilt", ms)
	}
	if ms.BuildsSkipped == 0 {
		t.Fatal("BuildsSkipped did not count the disk restore")
	}
	ts2.Close()
	s2.Close()

	// Bumping the engine version makes every persisted entry unreachable:
	// the same request is cold again.
	s3, ts3 := newTestServer(t, Config{CacheDir: dir, EngineVersion: "2"})
	if status, resp := post(t, ts3.URL, req); status != 200 || resp.Cached {
		t.Fatalf("post-bump request: status=%d cached=%v, want cold", status, resp != nil && resp.Cached)
	}
	if cs, ms := s3.cache.Stats(), s3.prec.Stats(); cs.DiskHits != 0 || ms.DiskHits != 0 {
		t.Fatalf("post-bump stats = %+v / %+v, want no disk hits", cs, ms)
	}
}

func TestCacheNamespace(t *testing.T) {
	def := CacheNamespace("")
	if def != CacheNamespace(DefaultEngineVersion) {
		t.Fatal("empty engine version does not default")
	}
	if strings.Contains(def, "/") {
		t.Fatalf("namespace %q spans path segments; the version must collapse into one", def)
	}
	if CacheNamespace("2") == def {
		t.Fatal("engine-version bump did not change the namespace")
	}
	if !strings.Contains(def, "@engine-") {
		t.Fatalf("namespace %q lacks the engine-version component", def)
	}
}

// TestSessionCreateWritesMatrixOnce: a session starts on the matrix tier's
// own entry, so creating one over an unseen profile writes that matrix to
// disk once — the build's write-through — and the session adds no second
// write until a mutation changes the profile.
func TestSessionCreateWritesMatrixOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	if status, _ := createSession(t, ts.URL, testRequest("fair-kemeny", 21)); status != 200 {
		t.Fatalf("create: status %d", status)
	}
	if puts := s.prec.Stats().DiskPuts; puts != 1 {
		t.Fatalf("session create wrote the matrix to disk %d times, want 1", puts)
	}
}

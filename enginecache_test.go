package manirank_test

import (
	"context"
	"io/fs"
	"path/filepath"
	"reflect"
	"testing"

	"manirank"
)

// cacheTestProfile is a small fixed profile shared by the EngineCache tests.
func cacheTestProfile() manirank.Profile {
	return manirank.Profile{
		{0, 1, 2, 3, 4},
		{1, 0, 3, 2, 4},
		{0, 2, 1, 4, 3},
		{4, 3, 2, 1, 0},
	}
}

func TestEngineCacheSharesMatrices(t *testing.T) {
	ec := manirank.NewEngineCache(1 << 20)
	p := cacheTestProfile()
	e1, err := ec.Engine(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ec.Engine(context.Background(), cacheTestProfile()) // content-equal copy
	if err != nil {
		t.Fatal(err)
	}
	if e1.Precedence() != e2.Precedence() {
		t.Fatal("content-equal profiles did not share one matrix")
	}
	s := ec.Stats()
	if s.Builds != 1 || s.Hits != 1 || s.BuildsSkipped != 1 {
		t.Fatalf("stats = %+v, want 1 build shared by the second engine", s)
	}
	// The cached-path engine keeps its profile: profile-consuming methods
	// still solve.
	r, err := e2.Solve(context.Background(), manirank.MethodKemeny, nil)
	if err != nil {
		t.Fatalf("solve on cached engine: %v", err)
	}
	direct, err := manirank.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Solve(context.Background(), manirank.MethodKemeny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Ranking, want.Ranking) {
		t.Fatalf("cached engine ranking %v != direct %v", r.Ranking, want.Ranking)
	}
}

func TestEngineCacheRejectsInvalidProfile(t *testing.T) {
	ec := manirank.NewEngineCache(1 << 20)
	bad := manirank.Profile{{0, 1}, {0, 1, 2}} // ragged rows
	if _, err := ec.Engine(context.Background(), bad); err == nil {
		t.Fatal("invalid profile was accepted")
	}
	// The failed build must not wedge the key.
	if _, err := ec.Engine(context.Background(), cacheTestProfile()); err != nil {
		t.Fatal(err)
	}
}

func TestEngineCacheTableMismatch(t *testing.T) {
	ec := manirank.NewEngineCache(1 << 20)
	tab, err := manirank.NewTable(2,
		manirank.MustAttribute("G", []string{"a", "b"}, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Engine(context.Background(), cacheTestProfile(), manirank.WithTable(tab)); err == nil {
		t.Fatal("2-candidate table over a 5-candidate profile was accepted")
	}
}

// TestEngineCachePersistsAcrossInstances: the library-level warm restart —
// a second cache over the same directory restores the matrix instead of
// rebuilding, and an engine-version bump invalidates it.
func TestEngineCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	p := cacheTestProfile()

	ec1 := manirank.NewEngineCache(1 << 20)
	if err := ec1.AttachDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	e1, err := ec1.Engine(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if s := ec1.Stats(); s.DiskPuts != 1 {
		t.Fatalf("stats = %+v, want the built matrix written through", s)
	}
	if err := ec1.Close(); err != nil {
		t.Fatal(err)
	}

	ec2 := manirank.NewEngineCache(1 << 20)
	if err := ec2.AttachDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	e2, err := ec2.Engine(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	s := ec2.Stats()
	if s.Builds != 0 || s.DiskHits != 1 || s.BuildsSkipped != 1 {
		t.Fatalf("restart stats = %+v, want a disk restore instead of a build", s)
	}
	for a := 0; a < e1.N(); a++ {
		for b := 0; b < e1.N(); b++ {
			if e1.Precedence().At(a, b) != e2.Precedence().At(a, b) {
				t.Fatalf("restored W[%d][%d] differs", a, b)
			}
		}
	}

	ec3 := manirank.NewEngineCache(1 << 20)
	if err := ec3.AttachDir(dir, "2"); err != nil { // behaviour bump
		t.Fatal(err)
	}
	if _, err := ec3.Engine(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if s := ec3.Stats(); s.Builds != 1 || s.DiskHits != 0 {
		t.Fatalf("post-bump stats = %+v, want a fresh build", s)
	}
}

// countFiles counts the regular files under dir.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEngineCacheCloseDetachesDir: Close leaves the cache memory-only, as
// documented — a later build writes no file and moves no disk counter.
func TestEngineCacheCloseDetachesDir(t *testing.T) {
	dir := t.TempDir()
	ec := manirank.NewEngineCache(1 << 20)
	if err := ec.AttachDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	if err := ec.Close(); err != nil {
		t.Fatal(err)
	}
	files := countFiles(t, dir)
	e, err := ec.Engine(context.Background(), cacheTestProfile())
	if err != nil {
		t.Fatal(err)
	}
	ec.Put(context.Background(), e)
	if got := countFiles(t, dir); got != files {
		t.Fatalf("files under the detached dir: %d -> %d", files, got)
	}
	s := ec.Stats()
	if s.DiskPuts != 0 || s.DiskHits != 0 || s.DiskErrors != 0 {
		t.Fatalf("stats after Close = %+v, want no disk traffic", s)
	}
	if s.Builds != 1 || s.Entries != 1 {
		t.Fatalf("stats after Close = %+v, want the build served from memory", s)
	}
	if err := ec.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineCachePutKeysByMutatedProfile is the staleness regression for
// streaming sessions: a mutated engine re-admitted with Put must file its
// matrix under the POST-mutation profile digest. After a restart, asking for
// the mutated profile restores the patched matrix from disk, and asking for
// the original profile can never be served the pre-edit state's matrix under
// the wrong key (nor vice versa).
func TestEngineCachePutKeysByMutatedProfile(t *testing.T) {
	dir := t.TempDir()
	orig := cacheTestProfile()

	ec1 := manirank.NewEngineCache(1 << 20)
	if err := ec1.AttachDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	e, err := ec1.Engine(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	// Session edit: replace ranker 0, then re-admit the patched matrix.
	if err := e.UpdateRanking(0, manirank.Ranking{4, 2, 0, 1, 3}); err != nil {
		t.Fatal(err)
	}
	ec1.Put(context.Background(), e)
	mutated := e.Profile()
	if reflect.DeepEqual(mutated, orig) {
		t.Fatal("test bug: mutation was a no-op")
	}
	if s := ec1.Stats(); s.DiskPuts != 2 {
		t.Fatalf("stats = %+v, want the original build AND the Put written through", s)
	}
	if err := ec1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart. The mutated profile must warm-restore the patched matrix...
	ec2 := manirank.NewEngineCache(1 << 20)
	if err := ec2.AttachDir(dir, ""); err != nil {
		t.Fatal(err)
	}
	warm, err := ec2.Engine(context.Background(), mutated)
	if err != nil {
		t.Fatal(err)
	}
	if s := ec2.Stats(); s.Builds != 0 || s.DiskHits != 1 {
		t.Fatalf("restart stats = %+v, want a disk restore of the patched matrix", s)
	}
	fresh, err := manirank.NewEngine(mutated)
	if err != nil {
		t.Fatal(err)
	}
	requireMatrixEqual(t, warm.Precedence(), fresh.Precedence(), "restored post-edit matrix")

	// ...and the original profile must still get ITS matrix — a restore of
	// the pre-edit state, never the session's patched one.
	cold, err := ec2.Engine(context.Background(), orig)
	if err != nil {
		t.Fatal(err)
	}
	origFresh, err := manirank.NewEngine(orig)
	if err != nil {
		t.Fatal(err)
	}
	requireMatrixEqual(t, cold.Precedence(), origFresh.Precedence(), "restored pre-edit matrix")
}

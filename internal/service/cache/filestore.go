package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// fileMagic brands every entry file; anything without it is not ours (or is
// the torn prefix of a crashed write, or an entry in an older frame) and
// reads as a miss.
const fileMagic = "MRC2"

// fileHeaderLen is the fixed entry header: magic (4) + payload length (8) +
// payload CRC-32 (4).
const fileHeaderLen = 4 + 8 + 4

// tempPrefix starts the name of every file Put writes before renaming it
// into place. Entry keys are hex digests, so no entry starts with '.'.
const tempPrefix = ".tmp-"

// FileStore is the file-backed Store: one file per entry under
//
//	<root>/<namespace...>/<key prefix>/<key>
//
// where the namespace encodes the digest version and the engine version
// (e.g. "manirankd_v2@engine-1/results"), so bumping either changes the key
// path and makes every previously persisted entry unreachable — invalidation
// by versioned addressing, not by deletion. Opening a store prunes sibling
// version trees under root (they can never be read again), which keeps the
// directory bounded across upgrades.
//
// Writes are atomic: the entry is written to a temp file in the destination
// directory and renamed into place, so a crash mid-write leaves at worst a
// stale temp file, which the next OpenFileStore deletes, never a torn
// entry. Each entry carries a header with a magic, the payload length, and
// a payload CRC; Get treats any mismatch — truncation, corruption, a
// foreign magic — as a miss and deletes the file.
type FileStore struct {
	dir string // the namespace directory all entries live under

	mu     sync.Mutex
	budget *DiskBudget // nil: unbounded
}

// OpenFileStore opens (creating as needed) the file store rooted at root for
// the given namespace. The namespace may contain "/" separators; each
// segment is sanitised to a safe directory name. The first segment is the
// version tree: sibling first-segment directories under root are pruned,
// because a version bump made their entries unreachable forever. Root must
// therefore be a directory dedicated to this store (manirankd's -cache-dir).
//
// Opening also deletes every temp file under the namespace directory: one
// left by a crash mid-Put is not an entry and no DiskBudget walk charges
// it, so nothing else would reclaim it. A store opened on the same
// directory by another process may have a Put in flight; deleting its temp
// file makes that Put's rename fail and return an error. The write is
// lost, but no entry is ever corrupted.
func OpenFileStore(root, namespace string) (*FileStore, error) {
	if root == "" {
		return nil, errors.New("cache: empty file store root")
	}
	segs := strings.Split(namespace, "/")
	for i, s := range segs {
		segs[i] = sanitizeSegment(s)
		if segs[i] == "" {
			return nil, fmt.Errorf("cache: empty namespace segment in %q", namespace)
		}
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating store root: %w", err)
	}
	pruneStaleVersions(root, segs[0])
	dir := filepath.Join(append([]string{root}, segs...)...)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating store namespace: %w", err)
	}
	removeTempFiles(dir)
	return &FileStore{dir: dir}, nil
}

// removeTempFiles deletes the temp files under dir. Errors are ignored, as
// in pruneStaleVersions: an orphan that survives costs disk, not
// correctness.
func removeTempFiles(dir string) {
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), tempPrefix) {
			os.Remove(p)
		}
		return nil
	})
}

// pruneStaleVersions removes version trees under root other than keep: their
// keys embed a digest or engine version this process will never ask for
// again, so they are dead weight on disk. Errors are ignored — pruning is
// best-effort hygiene, not correctness.
func pruneStaleVersions(root, keep string) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != keep {
			os.RemoveAll(filepath.Join(root, e.Name()))
		}
	}
}

// sanitizeSegment maps a namespace segment onto a safe directory name:
// alphanumerics, '.', '_', '-', '@' pass through, everything else becomes
// '_' (so the digest version "manirankd/v2" arrives pre-split by '/').
func sanitizeSegment(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-', r == '@':
			return r
		}
		return '_'
	}, s)
}

// SetBudget attaches a disk-usage budget: the store reports every write
// and delete to it and refreshes entry mtimes on reads so the budget's
// eviction is recency-ordered. One DiskBudget is typically shared by the
// results and matrices stores under the same root. Attach before serving
// traffic.
func (s *FileStore) SetBudget(b *DiskBudget) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = b
}

func (s *FileStore) budgetRef() *DiskBudget {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// path returns the entry file for key, fanned out over a two-character
// prefix directory so one flat directory never holds the whole tier.
func (s *FileStore) path(key string) (string, error) {
	k := sanitizeSegment(key)
	if k != key || key == "" {
		// Keys are hex digests everywhere in this repo; anything else would
		// alias after sanitisation, which a content-addressed store cannot
		// tolerate.
		return "", fmt.Errorf("cache: key %q is not file-store safe", key)
	}
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.dir, prefix, key), nil
}

// Get implements Store: corrupt and truncated entries read as misses and are
// deleted in passing.
func (s *FileStore) Get(key string) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	value, ok := decodeEntry(data)
	if !ok {
		s.removeCharged(p, int64(len(data)))
		return nil, false, nil
	}
	if b := s.budgetRef(); b != nil {
		b.touch(p)
	}
	return value, true, nil
}

// removeCharged deletes an entry file and refunds its bytes to the budget.
func (s *FileStore) removeCharged(p string, size int64) {
	if os.Remove(p) == nil {
		if b := s.budgetRef(); b != nil {
			b.charge(-size)
		}
	}
}

// Put implements Store with a temp-file + rename write, atomic on POSIX
// filesystems.
func (s *FileStore) Put(key string, value []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, tempPrefix+"*")
	if err != nil {
		return err
	}
	buf := encodeEntry(value)
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	var oldSize int64
	b := s.budgetRef()
	if b != nil {
		if info, serr := os.Stat(p); serr == nil {
			oldSize = info.Size()
		}
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if b != nil {
		b.charge(int64(len(buf)) - oldSize)
	}
	return nil
}

// Delete implements Store; deleting an absent key succeeds.
func (s *FileStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	var size int64
	if b := s.budgetRef(); b != nil {
		if info, serr := os.Stat(p); serr == nil {
			size = info.Size()
		}
	}
	if err := os.Remove(p); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	if b := s.budgetRef(); b != nil && size > 0 {
		b.charge(-size)
	}
	return nil
}

// Close implements Store; the file store holds no open handles between
// calls, so there is nothing to release.
func (s *FileStore) Close() error { return nil }

// encodeEntry frames value with the store's header: magic, payload length,
// payload CRC-32.
func encodeEntry(value []byte) []byte {
	buf := make([]byte, fileHeaderLen+len(value))
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint64(buf[4:], uint64(len(value)))
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(value))
	copy(buf[fileHeaderLen:], value)
	return buf
}

// decodeEntry validates an entry file's frame; ok is false for any torn,
// truncated, corrupt, or foreign-magic form.
func decodeEntry(data []byte) (value []byte, ok bool) {
	if len(data) < fileHeaderLen || string(data[:4]) != fileMagic {
		return nil, false
	}
	length := binary.LittleEndian.Uint64(data[4:])
	crc := binary.LittleEndian.Uint32(data[12:])
	payload := data[fileHeaderLen:]
	if uint64(len(payload)) != length || crc32.ChecksumIEEE(payload) != crc {
		return nil, false
	}
	return payload, true
}

// Package store is the content-addressed on-disk spill tier under the qoed
// result cache: a directory of finished NDJSON run streams keyed by the
// serving layer's canonical run IDs. Because a run is a pure function of its
// canonical tuple, an entry never goes stale — the store exists to make the
// cache survive process restarts (and to let evictions demote to disk rather
// than discard), so a rebooted or newly joined daemon serves its history with
// zero re-simulation.
//
// Durability discipline:
//
//   - Writes are atomic: bytes land in a same-directory temp file, are
//     fsynced, and only then renamed over the final name. A reader can never
//     observe a half-written entry under the final name, and a process killed
//     mid-write leaves only a temp file that the next Open sweeps away.
//   - Every entry is framed (magic, key and payload lengths, SHA-256 over
//     lengths+key+payload). Reads verify the frame end to end; a torn,
//     truncated, or bit-flipped file is detected, quarantined under a .bad
//     name for post-mortem, logged, and reported as a miss — corrupt bytes
//     are never returned to a caller.
//
// The store never invents bytes: a Get either returns exactly what Put wrote
// or reports a miss, so the serving layer's byte-identity guarantee (disk
// hits replay exactly the stream a fresh simulation would produce) reduces to
// the checksum check plus the engine's own determinism.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

const (
	// magic leads every entry file. The \r\n tail (the PNG trick) catches
	// text-mode transfer mangling as a corruption instead of a misparse.
	magic = "QOESP1\r\n"
	// entrySuffix names committed entries; tmpSuffix marks in-flight writes
	// (swept at Open); badSuffix marks quarantined corrupt entries.
	entrySuffix = ".qoes"
	tmpPattern  = "*.qoetmp"
	badSuffix   = ".bad"
)

// headerLen is the fixed frame prefix: magic, key length (u32 BE), payload
// length (u64 BE), SHA-256 over (lengths ‖ key ‖ payload).
const headerLen = len(magic) + 4 + 8 + sha256.Size

var (
	// ErrBadID rejects IDs that cannot safely name a file.
	ErrBadID = errors.New("store: invalid entry id")
	// errCorrupt classifies every frame-validation failure; it stays internal
	// because callers only observe a miss (plus the quarantine side effect).
	errCorrupt = errors.New("store: corrupt entry")
)

// Store is a content-addressed spill directory. Safe for concurrent use: the
// filesystem provides write atomicity (temp + rename), and the struct's own
// mutex only guards the accounting gauges.
type Store struct {
	dir string
	log *slog.Logger

	mu          sync.Mutex
	entries     int
	bytes       int64 // committed file bytes (frame included), for the gauge
	quarantined uint64
}

// Open mounts (creating if needed) a spill directory and sweeps the debris
// of any mid-write death: temp files are deleted — their entries were never
// committed, so the runs simply re-simulate on demand. Committed entries are
// inventoried by size only; frames are verified lazily on first read, so a
// large store opens in O(entries) stats, not O(bytes) checksums. A nil log
// discards the sweep and quarantine lines.
func Open(dir string, log *slog.Logger) (*Store, error) {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, log: log}
	glob, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range glob {
		name := de.Name()
		switch {
		case strings.HasSuffix(name, strings.TrimPrefix(tmpPattern, "*")):
			// A writer died mid-frame; the rename never happened, so this is
			// not (and never was) an entry.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				log.Warn("store: sweeping stale temp failed", "file", name, "err", err)
			} else {
				log.Info("store: swept stale temp (writer died mid-write)", "file", name)
			}
		case strings.HasSuffix(name, entrySuffix):
			if info, err := de.Info(); err == nil {
				s.entries++
				s.bytes += info.Size()
			}
		}
	}
	return s, nil
}

// validID accepts exactly the filename-safe alphabet the serving layer's
// hex run IDs live in (plus - and _ for forward compatibility).
func validID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+entrySuffix) }

// frameSize is the committed file size of an entry with the given key and
// payload lengths.
func frameSize(keyLen, payloadLen int) int64 {
	return int64(headerLen) + int64(keyLen) + int64(payloadLen)
}

// sumFrame hashes lengths ‖ key ‖ payload. Including the lengths matters: a
// bit flip in the key-length field re-splits the same concatenated bytes, so
// a hash over key‖payload alone would still verify.
func sumFrame(key string, payload []byte) [sha256.Size]byte {
	h := sha256.New()
	var lens [12]byte
	binary.BigEndian.PutUint32(lens[0:4], uint32(len(key)))
	binary.BigEndian.PutUint64(lens[4:12], uint64(len(payload)))
	h.Write(lens[:])
	h.Write([]byte(key))
	h.Write(payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// frameHeader is the frame prefix of an entry; the key and payload follow it.
func frameHeader(key string, payload []byte) [headerLen]byte {
	var hdr [headerLen]byte
	n := copy(hdr[:], magic)
	binary.BigEndian.PutUint32(hdr[n:n+4], uint32(len(key)))
	binary.BigEndian.PutUint64(hdr[n+4:n+12], uint64(len(payload)))
	sum := sumFrame(key, payload)
	copy(hdr[n+12:], sum[:])
	return hdr
}

// Has reports (by a single stat, no read or checksum) whether a committed
// entry exists for id with the exact size its frame would occupy given the
// key and payload lengths — the cheap probe Put uses to skip rewrites and
// eviction-demotion uses to turn write-through no-ops into one stat.
// sizeFor < 0 skips the size check and answers on existence alone.
func (s *Store) has(id string, wantSize int64) bool {
	info, err := os.Stat(s.path(id))
	if err != nil {
		return false
	}
	return wantSize < 0 || info.Size() == wantSize
}

// Has reports whether a committed entry exists for id (existence only; the
// frame is verified on Get).
func (s *Store) Has(id string) bool {
	return validID(id) && s.has(id, -1)
}

// Put commits one finished stream under id, atomically. An existing entry of
// the expected size is left untouched (determinism makes rewrites pointless);
// anything else — absent, torn, or wrong-sized — is replaced wholesale. The
// bytes are fsynced before the rename, so a committed entry survives an
// immediate crash.
func (s *Store) Put(id, key string, payload []byte) error {
	if !validID(id) {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	want := frameSize(len(key), len(payload))
	if s.has(id, want) {
		return nil
	}
	f, err := os.CreateTemp(s.dir, id+"-"+tmpPattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	defer os.Remove(tmp) // no-op after a successful rename

	hdr := frameHeader(key, payload)
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.WriteString(key)
	}
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", id, err)
	}
	// Stat the victim before the atomic replace so the gauges stay balanced
	// when an (old or corrupt) entry is overwritten.
	var replaced int64 = -1
	if info, err := os.Stat(s.path(id)); err == nil {
		replaced = info.Size()
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		return fmt.Errorf("store: committing %s: %w", id, err)
	}
	s.mu.Lock()
	if replaced >= 0 {
		s.bytes -= replaced
	} else {
		s.entries++
	}
	s.bytes += want
	s.mu.Unlock()
	return nil
}

// Get returns the committed stream for id, or ok=false on a miss. A file
// that exists but fails frame validation — wrong magic, inconsistent
// lengths, checksum mismatch, truncation — is quarantined (renamed to a .bad
// sibling for post-mortem), logged, counted, and reported as a miss: the
// caller re-simulates, and corrupt bytes never reach a client.
func (s *Store) Get(id string) (payload []byte, key string, ok bool) {
	if !validID(id) {
		return nil, "", false
	}
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, "", false
	}
	key, payload, err = parseFrame(raw)
	if err != nil {
		s.quarantine(id, err)
		return nil, "", false
	}
	return payload, key, true
}

// parseFrame validates one entry file end to end.
func parseFrame(raw []byte) (key string, payload []byte, err error) {
	if len(raw) < headerLen {
		return "", nil, fmt.Errorf("%w: %d bytes is shorter than the frame header", errCorrupt, len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return "", nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	keyLen := uint64(binary.BigEndian.Uint32(raw[len(magic) : len(magic)+4]))
	payloadLen := binary.BigEndian.Uint64(raw[len(magic)+4 : len(magic)+12])
	// Compare in uint64 before converting: a declared length near 2^64
	// would wrap negative as an int and pass a signed size check.
	content := uint64(len(raw) - headerLen)
	if keyLen > content || payloadLen != content-keyLen {
		return "", nil, fmt.Errorf("%w: frame declares %d+%d content bytes but file holds %d",
			errCorrupt, keyLen, payloadLen, content)
	}
	key = string(raw[headerLen : headerLen+int(keyLen)])
	payload = raw[headerLen+int(keyLen):]
	var sum [sha256.Size]byte
	copy(sum[:], raw[len(magic)+12:len(magic)+12+sha256.Size])
	if sumFrame(key, payload) != sum {
		return "", nil, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	return key, payload, nil
}

// quarantine moves a corrupt entry aside so it stops masking the ID (the
// next Put recreates a clean entry) while staying on disk for inspection.
func (s *Store) quarantine(id string, reason error) {
	src := s.path(id)
	var size int64
	if info, err := os.Stat(src); err == nil {
		size = info.Size()
	}
	dst := src + badSuffix
	if err := os.Rename(src, dst); err != nil {
		// Renaming failed (e.g. the file vanished); removing is the fallback
		// that still unmasks the ID.
		if rmErr := os.Remove(src); rmErr != nil && !errors.Is(rmErr, fs.ErrNotExist) {
			s.log.Error("store: quarantining corrupt entry failed", "id", id, "rename_err", err, "remove_err", rmErr)
			return
		}
		dst = "(removed)"
	}
	s.mu.Lock()
	s.entries--
	s.bytes -= size
	s.quarantined++
	s.mu.Unlock()
	s.log.Warn("store: quarantined corrupt entry (will re-simulate on demand)", "id", id, "moved_to", dst, "reason", reason)
}

// Entries reports the committed entry count.
func (s *Store) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries
}

// Bytes reports the committed on-disk size (frames included).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Quarantined reports how many corrupt entries this process has quarantined.
func (s *Store) Quarantined() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

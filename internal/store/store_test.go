package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testlog"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, testlog.New(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, dir
}

func TestPutGetRoundtrip(t *testing.T) {
	s, _ := openTemp(t)
	payload := []byte(`{"schema_version":1,"type":"summary"}` + "\n")
	if err := s.Put("deadbeef01", "v1|scale=quick|seed=1|experiments=table1", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, key, ok := s.Get("deadbeef01")
	if !ok {
		t.Fatal("Get: miss after Put")
	}
	if key != "v1|scale=quick|seed=1|experiments=table1" {
		t.Fatalf("Get key = %q", key)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get payload = %q, want %q", got, payload)
	}
	if !s.Has("deadbeef01") {
		t.Fatal("Has = false after Put")
	}
	if s.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", s.Entries())
	}
	if want := frameSize(len("v1|scale=quick|seed=1|experiments=table1"), len(payload)); s.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), want)
	}
}

func TestGetMissOnAbsent(t *testing.T) {
	s, _ := openTemp(t)
	if _, _, ok := s.Get("cafebabe"); ok {
		t.Fatal("Get on empty store: ok = true")
	}
	if s.Has("cafebabe") {
		t.Fatal("Has on empty store: true")
	}
}

func TestPutRejectsUnsafeIDs(t *testing.T) {
	s, _ := openTemp(t)
	for _, id := range []string{"", "../escape", "a/b", "a.b", strings.Repeat("x", 200)} {
		if err := s.Put(id, "k", []byte("p")); err == nil {
			t.Errorf("Put(%q) accepted an unsafe id", id)
		}
		if _, _, ok := s.Get(id); ok {
			t.Errorf("Get(%q) returned ok for an unsafe id", id)
		}
	}
}

func TestPutIdempotentSkipsRewrite(t *testing.T) {
	s, dir := openTemp(t)
	payload := []byte("payload-bytes\n")
	if err := s.Put("abc123", "key", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, "abc123"+entrySuffix)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := s.Put("abc123", "key", payload); err != nil {
		t.Fatalf("repeat Put: %v", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("repeat Put rewrote an identical-size entry")
	}
	if s.Entries() != 1 {
		t.Fatalf("Entries = %d after idempotent Put, want 1", s.Entries())
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	// Simulate a writer killed mid-write: a temp file exists, no committed
	// entry does.
	stale := filepath.Join(dir, "deadbeef-12345.qoetmp")
	if err := os.WriteFile(stale, []byte("half-a-frame"), 0o644); err != nil {
		t.Fatalf("plant temp: %v", err)
	}
	s, err := Open(dir, testlog.New(t))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("Open left the stale temp file in place")
	}
	if s.Entries() != 0 {
		t.Fatalf("Entries = %d, want 0 (temp files are not entries)", s.Entries())
	}
}

func TestOpenInventoriesExistingEntries(t *testing.T) {
	s1, dir := openTemp(t)
	for i := 0; i < 3; i++ {
		if err := s1.Put(fmt.Sprintf("entry%02d", i), "key", []byte("payload")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	s2, err := Open(dir, testlog.New(t))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Entries() != 3 {
		t.Fatalf("reopened Entries = %d, want 3", s2.Entries())
	}
	if s2.Bytes() != s1.Bytes() {
		t.Fatalf("reopened Bytes = %d, want %d", s2.Bytes(), s1.Bytes())
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := s2.Get(fmt.Sprintf("entry%02d", i)); !ok {
			t.Fatalf("entry%02d lost across reopen", i)
		}
	}
}

// corruptionCase plants a committed entry, mangles it in a specific way, and
// expects Get to quarantine it rather than return bytes.
func corruptionCase(t *testing.T, name string, mangle func(t *testing.T, path string)) {
	t.Run(name, func(t *testing.T) {
		s, dir := openTemp(t)
		payload := []byte(`{"type":"row","v":1}` + "\n" + `{"type":"summary"}` + "\n")
		if err := s.Put("victim01", "some-key", payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
		path := filepath.Join(dir, "victim01"+entrySuffix)
		mangle(t, path)

		got, _, ok := s.Get("victim01")
		if ok {
			t.Fatalf("Get returned ok for a corrupt entry (payload %q)", got)
		}
		if got != nil {
			t.Fatalf("Get leaked bytes from a corrupt entry: %q", got)
		}
		if s.Quarantined() != 1 {
			t.Fatalf("Quarantined = %d, want 1", s.Quarantined())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("corrupt entry still present under its serving name")
		}
		if _, err := os.Stat(path + badSuffix); err != nil {
			t.Fatalf("quarantined file missing: %v", err)
		}
		if s.Has("victim01") {
			t.Fatal("Has = true after quarantine")
		}
		// The ID is unmasked: a clean re-Put must serve again.
		if err := s.Put("victim01", "some-key", payload); err != nil {
			t.Fatalf("re-Put after quarantine: %v", err)
		}
		fresh, _, ok := s.Get("victim01")
		if !ok || !bytes.Equal(fresh, payload) {
			t.Fatal("re-Put after quarantine did not restore the entry")
		}
	})
}

func TestCorruptEntriesQuarantined(t *testing.T) {
	corruptionCase(t, "truncated", func(t *testing.T, path string) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-5); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "truncated_inside_header", func(t *testing.T, path string) {
		if err := os.Truncate(path, int64(headerLen)-3); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "payload_bit_flip", func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-4] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "keylen_bit_flip", func(t *testing.T, path string) {
		// Flipping a length field re-splits the same concatenation; the
		// checksum covers the lengths precisely so this cannot verify.
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(magic)+3] ^= 0x01
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "lengths_wrap", func(t *testing.T, path string) {
		// Key length 10 and payload length 2^64-5 sum to the 5 content
		// bytes of a 57-byte file only if the payload length wraps to -5.
		if err := os.WriteFile(path, wrappedFrame(), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "bad_magic", func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[0] = 'X'
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corruptionCase(t, "checksum_bit_flip", func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(magic)+12] ^= 0x80
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// wrappedFrame is a 57-byte entry whose declared lengths, 10 and 2^64-5,
// sum to its 5 content bytes modulo 2^64.
func wrappedFrame() []byte {
	raw := make([]byte, headerLen+5)
	copy(raw, magic)
	binary.BigEndian.PutUint32(raw[len(magic):], 10)
	binary.BigEndian.PutUint64(raw[len(magic)+4:], math.MaxUint64-4)
	return raw
}

// FuzzParseFrame feeds arbitrary entry files to the frame reader: it must
// never panic, and every frame it accepts must be exactly the frame Put
// writes for the key and payload it returned.
func FuzzParseFrame(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put("seed01", "some-key", []byte(`{"type":"row","v":1}`+"\n")); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seed01"+entrySuffix))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(wrappedFrame())
	f.Fuzz(func(t *testing.T, raw []byte) {
		key, payload, err := parseFrame(raw)
		if err != nil {
			return
		}
		hdr := frameHeader(key, payload)
		again := append(append(hdr[:], key...), payload...)
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted frame re-encodes differently:\n got %x\nwant %x", again, raw)
		}
	})
}

func TestPutReplacesCorruptEntry(t *testing.T) {
	s, dir := openTemp(t)
	payload := []byte("good-bytes\n")
	if err := s.Put("fixme01", "key", payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Corrupt in place without changing the size: the size-probe alone would
	// skip the rewrite, but the entry differs in content. Put with a
	// different payload length must replace it wholesale.
	path := filepath.Join(dir, "fixme01"+entrySuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	longer := []byte("good-bytes-longer\n")
	if err := s.Put("fixme01", "key", longer); err != nil {
		t.Fatalf("replacing Put: %v", err)
	}
	got, _, ok := s.Get("fixme01")
	if !ok || !bytes.Equal(got, longer) {
		t.Fatalf("Get after replacing Put = %q, %v", got, ok)
	}
	if s.Entries() != 1 {
		t.Fatalf("Entries = %d after replace, want 1", s.Entries())
	}
}

func TestEmptyPayloadRoundtrip(t *testing.T) {
	s, _ := openTemp(t)
	if err := s.Put("empty01", "key", nil); err != nil {
		t.Fatalf("Put(nil payload): %v", err)
	}
	got, key, ok := s.Get("empty01")
	if !ok || key != "key" || len(got) != 0 {
		t.Fatalf("Get = %q, %q, %v", got, key, ok)
	}
}

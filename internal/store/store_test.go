package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/metrics/testutil"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"v":1,"basis":[[1,2],[3,4]]}`)
	if err := s.Put("stable", "abc123", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("stable", "abc123")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if v := testutil.ToFloat64(s.Metrics().Reads.WithLabelValues("hit")); v != 1 {
		t.Fatalf("hit counter = %v, want 1", v)
	}
}

func TestGetMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("stable", "deadbeef")
	if err != nil || got != nil {
		t.Fatalf("Get = %q, %v; want nil, nil", got, err)
	}
	if v := testutil.ToFloat64(s.Metrics().Reads.WithLabelValues("miss")); v != 1 {
		t.Fatalf("miss counter = %v, want 1", v)
	}
}

// A corrupt entry is deleted and never trusted: Get reports ErrCorrupt,
// and the next Get is a clean miss.
func TestCorruptEntryDeletedNotTrusted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("basis", "cafe", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "basis", "cafe")
	for name, corrupt := range map[string]func([]byte) []byte{
		"flipped payload bit": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"truncated":           func(b []byte) []byte { return b[:len(b)-3] },
		"bad magic":           func(b []byte) []byte { b[0] = 'X'; return b },
		"short file":          func(b []byte) []byte { return b[:5] },
	} {
		if err := s.Put("basis", "cafe", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, corrupt(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("basis", "cafe"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Get err = %v, want ErrCorrupt", name, err)
		}
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: corrupt entry not deleted", name)
		}
		if got, err := s.Get("basis", "cafe"); err != nil || got != nil {
			t.Fatalf("%s: after corruption Get = %q, %v; want clean miss", name, got, err)
		}
	}
}

func TestPutOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("stable", "aa", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("stable", "aa", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("stable", "aa")
	if err != nil || string(got) != "new" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Join(dir, "stable"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("store dir has %d entries, want 1", len(entries))
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../etc", "UPPER", "a/b", "a.b"} {
		if err := s.Put(bad, "aa", []byte("x")); err == nil {
			t.Errorf("Put accepted kind %q", bad)
		}
		if err := s.Put("stable", bad, []byte("x")); err == nil {
			t.Errorf("Put accepted hash %q", bad)
		}
	}
}

func TestFaultInjection(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("stable", "bb", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// store.read fires → behaves as corruption: entry deleted, ErrCorrupt.
	if err := faultinject.Configure(faultinject.PointStoreRead + "=at:1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disable()
	if _, err := s.Get("stable", "bb"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("injected read err = %v, want ErrCorrupt", err)
	}
	if got, err := s.Get("stable", "bb"); err != nil || got != nil {
		t.Fatalf("after injected corruption Get = %q, %v; want clean miss", got, err)
	}

	// store.write fires → Put fails, no entry appears.
	if err := faultinject.Configure(faultinject.PointStoreWrite + "=at:1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("stable", "bb", []byte("x")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected write err = %v, want ErrInjected", err)
	}
	faultinject.Disable()
	if got, err := s.Get("stable", "bb"); err != nil || got != nil {
		t.Fatalf("entry appeared despite failed Put: %q, %v", got, err)
	}
	if err := s.Put("stable", "bb", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecode(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), make([]byte, 4096)} {
		got, err := Decode(Encode(payload))
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)) err: %v", len(payload), err)
		}
		if string(got) != string(payload) {
			t.Fatalf("round trip mangled %d-byte payload", len(payload))
		}
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) accepted")
	}
}

// FuzzStoreDecode: the frame decoder is the first code on-disk bytes
// reach. It must never panic, every frame it accepts must re-encode byte
// for byte (so there is one framing per payload), and every payload must
// survive Encode then Decode.
func FuzzStoreDecode(f *testing.F) {
	for _, payload := range [][]byte{nil, []byte("x"), []byte(`{"v":1,"basis":[[1,2]]}`), make([]byte, 64)} {
		raw := Encode(payload)
		f.Add(raw)
		f.Add(raw[:len(raw)-1])          // torn write
		f.Add(append(raw[:12:12], 0xff)) // payload that fails the length or CRC check
	}
	f.Add([]byte("PPA1"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if payload, err := Decode(raw); err == nil {
			if again := Encode(payload); !bytes.Equal(again, raw) {
				t.Fatalf("accepted frame re-encodes differently:\n in: %x\nout: %x", raw, again)
			}
		}
		got, err := Decode(Encode(raw))
		if err != nil {
			t.Fatalf("Decode(Encode(%d bytes)): %v", len(raw), err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("round trip mangled a %d-byte payload", len(raw))
		}
	})
}

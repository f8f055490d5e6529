package httpbody

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// TestRead: a body that declares its length is read in one
// allocation, one that does not (chunked) is read whole as by
// io.ReadAll, and a read error is returned with the bytes before it.
func TestRead(t *testing.T) {
	data := []byte(strings.Repeat(`{"name":"x"}`, 80))
	if got, err := Read(bytes.NewReader(data), int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("sized body: %d bytes, %v", len(got), err)
	}
	rd := bytes.NewReader(data)
	if allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(data)
		Read(rd, int64(len(data)))
	}); allocs != 1 {
		t.Errorf("reading a %d-byte sized body: %.1f allocations", len(data), allocs)
	}
	if got, err := Read(iotest.HalfReader(bytes.NewReader(data)), -1); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("chunked body: %d bytes, %v", len(got), err)
	}
	got, err := Read(iotest.TimeoutReader(iotest.OneByteReader(bytes.NewReader(data))), int64(len(data))+10)
	if err != iotest.ErrTimeout || !bytes.Equal(got, data[:1]) {
		t.Errorf("a read error: %q, %v; want %q, %v", got, err, data[:1], iotest.ErrTimeout)
	}
	long := bytes.Repeat(data, 200) // past maxPresize
	if got, err := Read(iotest.HalfReader(bytes.NewReader(long)), int64(len(long))); err != nil || !bytes.Equal(got, long) {
		t.Fatalf("long sized body: %d bytes, %v", len(got), err)
	}
}

// TestDeclaredLengthIsNotTrusted: a body that declares 16 MiB and
// sends a few bytes allocates for the bytes, not for the declaration.
func TestDeclaredLengthIsNotTrusted(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := Read(strings.NewReader(`{"machine":"gp:2:2:1"}`), 16<<20)
	runtime.ReadMemStats(&after)
	if err != nil || string(got) != `{"machine":"gp:2:2:1"}` {
		t.Fatalf("got %q, %v", got, err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*maxPresize {
		t.Errorf("reading 22 bytes declared as 16 MiB allocated %d bytes, want <= %d", n, 2*maxPresize)
	}
}

package dvs

import (
	"context"
	"strings"
	"testing"
)

// BenchmarkDVSGet measures one view-set lookup on loopback: a client
// resolving a ~450-byte exNode from a local DVS level, sequentially.
// Run with -benchmem; allocs/op and B/op cover both the client and the
// server side, since both live in this process.
func BenchmarkDVSGet(b *testing.B) {
	s := NewServer("")
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	key := Key{Dataset: "neghip", ViewSet: "r05c07"}
	xml := []byte("<exnode name=\"r05c07\" length=\"65536\">" +
		strings.Repeat("<mapping offset=\"0\" length=\"4096\"/>", 11) + "</exnode>")
	if err := s.Put(key, xml); err != nil {
		b.Fatal(err)
	}
	cl := &Client{Addr: addr}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reps, err := cl.Get(ctx, key)
		if err != nil || len(reps) != 1 {
			b.Fatalf("get: %v, %d replicas", err, len(reps))
		}
	}
}

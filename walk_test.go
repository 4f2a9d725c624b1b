package cpdb_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/provauth"
	"repro/internal/provhttp"
	"repro/internal/provrepl"
	"repro/internal/provstore"
)

// TestWalkBackendChain walks batching → verified:// → replicated://, whose
// primary is sharded:// over two mem:// stores and whose replica is a
// cpdb:// client. As must find the single-store layers and nothing inside
// the composites; Walk must reach every store once.
func TestWalkBackendChain(t *testing.T) {
	srv := httptest.NewServer(provhttp.NewServer(provstore.NewMemBackend()))
	defer srv.Close()
	client := provhttp.NewClient(strings.TrimPrefix(srv.URL, "http://"))
	shard0, shard1 := provstore.NewMemBackend(), provstore.NewMemBackend()
	sharded, err := provstore.NewSharded(shard0, shard1)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := provrepl.New(sharded, []provstore.Backend{client}, provrepl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	auth, err := provauth.New(repl)
	if err != nil {
		t.Fatal(err)
	}
	top := provstore.NewBatching(auth, 4)
	defer provstore.Close(top) //nolint:errcheck // in-memory teardown

	// The client replica is an Authority too; As must not reach it.
	if a, ok := provstore.As[provauth.Authority](top); !ok || a != provauth.Authority(auth) {
		t.Errorf("As[Authority] = %T, %v; want the AuthBackend", a, ok)
	}
	if rb, ok := provstore.As[*provrepl.ReplicatedBackend](auth); !ok || rb != repl {
		t.Errorf("As[*ReplicatedBackend] through verified:// = %p, %v; want %p", rb, ok, repl)
	}
	if c, ok := provstore.As[*provhttp.Client](top); ok {
		t.Errorf("As[*Client] returned replica %p", c)
	}
	if sb, ok := provstore.As[*provstore.ShardedBackend](top); ok {
		t.Errorf("As[*ShardedBackend] returned the primary %p from inside replicated://", sb)
	}
	if m, ok := provstore.As[*provstore.MemBackend](top); ok {
		t.Errorf("As[*MemBackend] returned shard %p", m)
	}

	var visited []provstore.Backend
	provstore.Walk(top, func(b provstore.Backend) bool {
		visited = append(visited, b)
		_, isClient := b.(*provhttp.Client)
		return !isClient
	})
	want := []provstore.Backend{top, auth, repl, sharded, shard0, shard1, client}
	if len(visited) != len(want) {
		t.Fatalf("Walk visited %d stores, want %d: %v", len(visited), len(want), visited)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("Walk visit %d = %T %p, want %T %p", i, visited[i], visited[i], want[i], want[i])
		}
	}

	// A refused node's subtree is skipped; its siblings are not.
	visited = visited[:0]
	provstore.Walk(top, func(b provstore.Backend) bool {
		visited = append(visited, b)
		return b != provstore.Backend(sharded)
	})
	if len(visited) != 5 || visited[4] != provstore.Backend(client) {
		t.Errorf("Walk refusing sharded:// visited %v, want top, auth, repl, sharded, client", visited)
	}
}

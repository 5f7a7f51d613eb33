package store

import (
	"fmt"
	"testing"

	"github.com/cwru-db/fgs/internal/core"
	"github.com/cwru-db/fgs/internal/graph"
)

// benchRecord is a realistic update batch: 8 edges, short labels.
func benchRecord(epoch uint64) Record {
	ins := make([]core.EdgeUpdate, 8)
	for i := range ins {
		ins[i] = core.EdgeUpdate{
			From:  graph.NodeID(epoch*8+uint64(i)) % 100000,
			To:    graph.NodeID(epoch*8+uint64(i)+37) % 100000,
			Label: "corev",
		}
	}
	return Record{Epoch: epoch, Delta: core.Delta{Insert: ins}}
}

// BenchmarkWALAppend measures the durable-append path per fsync policy: the
// full cost of logging one applied batch, including the policy's sync wait.
// The batch number is dominated by fsync latency of the benchmark machine's
// filesystem, which is the point.
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []string{FsyncOff, FsyncBatch} {
		b.Run(policy, func(b *testing.B) {
			g, ms := testImage(b)
			st, _ := openStore(b, Options{Dir: b.TempDir(), Fsync: policy})
			defer st.Close() //lint:allow errdrop (benchmark teardown)
			if err := st.WriteSnapshot(0, g, ms); err != nil {
				b.Fatal(err)
			}
			enc := appendRecord(nil, benchRecord(1))
			b.SetBytes(int64(len(enc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Append(benchRecord(uint64(i + 1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecoveryReplay measures a full Open — manifest, snapshot load,
// and WAL tail decode — against a directory with a 1k-record tail.
func BenchmarkRecoveryReplay(b *testing.B) {
	for _, tail := range []int{100, 1000} {
		b.Run(fmt.Sprintf("tail%d", tail), func(b *testing.B) {
			dir, _, _, _ := seedStore(b, Options{Fsync: FsyncOff}, tail)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, rec, err := Open(Options{Dir: dir})
				if err != nil {
					b.Fatal(err)
				}
				if len(rec.Tail) != tail {
					b.Fatalf("tail %d, want %d", len(rec.Tail), tail)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

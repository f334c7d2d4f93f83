package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"exocore/internal/cli"
	"exocore/internal/cores"
	"exocore/internal/runner"
)

// TestChunkedMatchesMaterializedDocuments is the user-visible identity
// property behind the streaming pipeline: the exocore-result/v1 document
// a tool emits must be byte-identical whether the engine synthesized each
// trace in one chunk spanning the whole budget or streamed it in smaller
// chunks — across benchmarks, cores, and chunk sizes chosen to split
// traces at awkward offsets (mid-block, mid-region, far from the
// compaction stride). Runs under the -race gate.
func TestChunkedMatchesMaterializedDocuments(t *testing.T) {
	const maxDyn = 8_000
	coreNames := []string{"IO2", "OOO2"}

	wls, err := cli.ResolveBenchSpec("cjpeg,fft,bfs")
	if err != nil {
		t.Fatal(err)
	}
	bsas, err := cli.ResolveBSASpec("all")
	if err != nil {
		t.Fatal(err)
	}

	docBytes := func(chunkInsts int, core cores.Config) []byte {
		t.Helper()
		eng := runner.New(runner.Options{MaxDyn: maxDyn, ChunkInsts: chunkInsts})
		doc, err := EvaluateDocument(context.Background(), eng, "identity-test",
			wls, core, bsas, "oracle", nil)
		if err != nil {
			t.Fatal(err)
		}
		doc.Sort()
		var buf bytes.Buffer
		if err := doc.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, coreName := range coreNames {
		core, ok := cores.ConfigByName(coreName)
		if !ok {
			t.Fatalf("unknown core %s", coreName)
		}
		want := docBytes(maxDyn, core) // one chunk holds the whole trace
		for _, chunk := range []int{257, 4096, 0 /* default 1Mi */} {
			got := docBytes(chunk, core)
			if !bytes.Equal(got, want) {
				t.Errorf("core %s chunk %d: document diverges from the single-chunk trace\n--- single chunk ---\n%s\n--- chunked ---\n%s",
					core.Name, chunk, firstDiff(want, got), firstDiff(got, want))
			}
		}
	}
}

// firstDiff returns a short window around the first differing byte, so a
// failure points at the diverging field instead of dumping whole docs.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 60
	if lo < 0 {
		lo = 0
	}
	hi := i + 60
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("byte %d: ...%s...", i, a[lo:hi])
}

package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bsisa/internal/emu"
	"bsisa/internal/isa"
	"bsisa/internal/stats"
	"bsisa/internal/uarch"
)

// MmapReplaySpeed times the two ways a bsimd process can obtain a
// replayable committed-block trace: a fresh functional recording
// (emu.Record) versus memory-mapping the fixed-stride file a persistent
// store holds on disk and aliasing its column arrays in place
// (emu.OpenTraceFile), over every benchmark and both ISAs. The map path is
// measured from bytes on disk to a trace a replay engine will accept — one
// checksum-and-validate pass with no per-event work. Every row checks two
// equivalences, so the speedup never comes at the price of a divergent
// answer: the mapped trace re-encodes byte-identically to the independent
// fresh recording, and it replays field-for-field identically to it. The
// alloc columns are the per-request heap bill: recording pays for every
// column array, mapping only for bookkeeping, which is what lets a loaded
// bsimd serve large sweeps from its store without allocations per trace.
func (h *Harness) MmapReplaySpeed() (*stats.Table, error) {
	t := &stats.Table{
		Title: "Mmap replay speed: fresh recording vs mapping the stored fixed-stride form",
		Columns: []string{"Benchmark", "ISA", "Events", "Bytes",
			"Record (us)", "Map (us)", "Speedup", "Rec alloc (KB)", "Map alloc (KB)"},
		Note: "Mapped traces re-encode byte-identically to, and replay field-for-field identical to, an independent fresh recording (checked per row).",
	}
	dir, err := os.MkdirTemp("", "bsisa-mmapreplay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := baseConfig(LargeICache, false)
	var recordTotal, mapTotal time.Duration
	var recAllocTotal, mapAllocTotal, bytesTotal int64
	for _, b := range h.Benches {
		for _, side := range []struct {
			tag  string
			prog *isa.Program
		}{{"conv", b.Conv}, {"bsa", b.BSA}} {
			tr, traced, err := h.Trace(side.prog)
			if err != nil {
				return nil, err
			}
			if !traced {
				return nil, fmt.Errorf("harness: mmapreplay: %s/%s has no trace slot", b.Profile.Name, side.tag)
			}
			h.Opts.progress("mmapreplay %-8s %s", b.Profile.Name, side.tag)
			blob := tr.EncodeBytes(nil)
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.bstr", b.Profile.Name, side.tag))
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				return nil, err
			}

			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			start := time.Now()
			fresh, err := emu.Record(side.prog, emu.Config{MaxOps: h.Opts.EmuBudget})
			if err != nil {
				return nil, err
			}
			recordDur := time.Since(start)
			runtime.ReadMemStats(&ms)
			recAlloc := int64(ms.TotalAlloc - before)

			runtime.ReadMemStats(&ms)
			before = ms.TotalAlloc
			start = time.Now()
			m, err := emu.OpenTraceFile(path, side.prog)
			if err != nil {
				return nil, fmt.Errorf("harness: mmapreplay: %s/%s: open: %w", b.Profile.Name, side.tag, err)
			}
			mapDur := time.Since(start)
			runtime.ReadMemStats(&ms)
			mapAlloc := int64(ms.TotalAlloc - before)

			err = checkMapped(m.Trace(), fresh, cfg)
			zero := m.ZeroCopy()
			m.Release()
			if err != nil {
				return nil, fmt.Errorf("harness: mmapreplay: %s/%s: %w", b.Profile.Name, side.tag, err)
			}
			tag := side.tag
			if !zero {
				// Non-unix fallback read the file into the heap; the row is
				// still a fair load-path comparison, just not zero-copy.
				tag += "*"
			}

			recordTotal += recordDur
			mapTotal += mapDur
			recAllocTotal += recAlloc
			mapAllocTotal += mapAlloc
			bytesTotal += int64(len(blob))
			t.AddRow(b.Profile.Name, tag, tr.NumEvents(), len(blob),
				recordDur.Microseconds(), mapDur.Microseconds(),
				fmt.Sprintf("%.2fx", float64(recordDur)/float64(mapDur)),
				recAlloc/1024, mapAlloc/1024)
		}
	}
	t.AddRow("TOTAL", "", "", bytesTotal,
		recordTotal.Microseconds(), mapTotal.Microseconds(),
		fmt.Sprintf("%.2fx", float64(recordTotal)/float64(mapTotal)),
		recAllocTotal/1024, mapAllocTotal/1024)
	return t, nil
}

// checkMapped verifies a mapped trace against an independent fresh
// recording: byte-identical re-encodes, and identical replays at cfg.
func checkMapped(mapped, fresh *emu.Trace, cfg uarch.Config) error {
	if !bytes.Equal(mapped.EncodeBytes(nil), fresh.EncodeBytes(nil)) {
		return fmt.Errorf("mapped trace does not re-encode byte-identically to a fresh recording")
	}
	rm, err := uarch.ReplayTrace(mapped, cfg)
	if err != nil {
		return err
	}
	rf, err := uarch.ReplayTrace(fresh, cfg)
	if err != nil {
		return err
	}
	if *rm != *rf {
		return fmt.Errorf("mapped replay diverges from the recorded replay")
	}
	return nil
}

// Package store is the persistent, content-addressed result store behind
// the experiment pipeline: an append-only JSONL file in which every line is
// one committed segment of one Monte-Carlo point, keyed by a canonical hash
// of the point's full configuration (lattice/defect generator parameters,
// policy, noise, decoder, rounds, adaptive target, seed).
//
// The store exists so sweeps can resume and grow across sessions. Appends
// are the only write operation, so an interrupted run never corrupts
// earlier rows — at worst the final line is torn, and Open repairs that by
// truncating the tail back to the last committed row (reported, never
// silent) while merely counting mid-file corruption. Every row carries a
// CRC32C suffix (the v2 line format; bare-JSON v1 rows stay readable), an
// fsync policy bounds what power loss can take, and GC compaction is
// crash-atomic (temp + fsync + rename). Segments of the same key
// accumulate: a session that needs more shots than the store holds
// computes only the remainder under a fresh segment-derived RNG stream and
// appends it, and Get merges all segments into one aggregate with the
// Wilson confidence interval recomputed from the merged counts.
//
// Two invariants make merged rows statistically coherent (see DESIGN.md §7):
// the configuration hash covers everything that fixes a point's RNG stream
// family and physics, and every segment's stream is derived from the point
// seed by a pure SplitMix64 chain (package mc), so rows written by
// different sessions, worker counts, or resume orders are the same rows a
// single uninterrupted run would have written.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"surfdeformer/internal/mc"
	"surfdeformer/internal/obs"
)

// Store metrics: segments merged into the index (from disk or appends),
// rows written, merged points served to resume, GC compactions, fsyncs
// issued, and tail rows dropped by torn-tail repair.
var (
	obsRowsAppended   = obs.Default().Counter("store.rows_appended")
	obsRowsServed     = obs.Default().Counter("store.rows_served")
	obsSegmentsMerged = obs.Default().Counter("store.segments_merged")
	obsGCRuns         = obs.Default().Counter("store.gc_runs")
	obsSyncs          = obs.Default().Counter("store.syncs")
	obsRowsRepaired   = obs.Default().Counter("store.rows_repaired")
	obsCorruptLines   = obs.Default().Counter("store.corrupted_lines")
)

// crcTable is the Castagnoli polynomial (CRC32C) used by the v2 row
// format — the same polynomial filesystems and storage protocols use for
// end-to-end integrity checking.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when Append fsyncs the backing file. Whatever the
// policy, Close and Sync always flush to stable storage, and a clean OS
// with a dirty page cache loses nothing on process death (even SIGKILL) —
// the policy only matters for power loss / kernel crashes.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs on append at most once per
	// SyncEvery: bounded data loss at near-SyncNever throughput.
	SyncInterval SyncPolicy = iota
	// SyncNever leaves durability to Close/Sync and the OS.
	SyncNever
	// SyncAlways fsyncs after every append: a committed row survives
	// anything, at one fsync per point.
	SyncAlways
)

// ParseSyncPolicy parses the -store-sync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want never, interval or always)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return "interval"
	}
}

// Options tunes durability and testing hooks of an open store. The zero
// value is the production default: interval fsync, no injection.
type Options struct {
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// SyncEvery is the minimum spacing of interval-policy fsyncs
	// (default 1s). Ignored by the other policies.
	SyncEvery time.Duration
	// BeforeAppend, when non-nil, runs under the store lock just before a
	// row's bytes are written, with the exact line (checksum and newline
	// included) about to be appended. Returning an error fails the append
	// before anything reaches the file — the fault-injection seam used by
	// internal/chaos. Never set in production.
	BeforeAppend func(line []byte) error
}

// RepairReport describes what Open had to fix: a torn tail truncated away
// (an append cut short by a crash) and stale GC temp files removed (a GC
// killed between temp-file write and rename).
type RepairReport struct {
	// TruncatedBytes is how many trailing bytes were cut to restore the
	// last-line invariant.
	TruncatedBytes int64
	// DroppedLines is how many (partial or corrupt) tail lines those bytes
	// held; each is one uncommitted row lost, recomputed on resume.
	DroppedLines int
	// TempsRemoved counts orphaned GC temp files deleted.
	TempsRemoved int
}

// Repaired reports whether the report contains any repair action.
func (r RepairReport) Repaired() bool {
	return r.TruncatedBytes > 0 || r.DroppedLines > 0 || r.TempsRemoved > 0
}

// Row is one JSONL line: a committed segment of one point. Seq numbers the
// segments of a key; segment 0 is the stream an uninterrupted storeless run
// would use, so serving a completed point from the store reproduces that
// run byte-for-byte.
type Row struct {
	Key  string `json:"key"`
	Kind string `json:"kind,omitempty"`
	Seq  int    `json:"seq"`
	// Shots and Failures are this segment's committed Monte-Carlo counts
	// (zero for trial-style rows whose whole result lives in Payload).
	Shots    int `json:"shots,omitempty"`
	Failures int `json:"failures,omitempty"`
	// Complete marks the point as fully served at its configured budget or
	// adaptive target; resume skips complete points without re-deriving
	// budgets.
	Complete bool `json:"complete,omitempty"`
	// Config is the canonical point configuration (informational — the Key
	// already commits to it; kept so store-ls output is self-describing).
	Config json.RawMessage `json:"config,omitempty"`
	// Payload carries experiment-specific results needed to replay the
	// point without recomputation (per-basis counts, flags, rendered
	// fields). For multi-segment keys the merge keeps the highest-Seq
	// payload.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Point is the merged view of all segments of one key.
type Point struct {
	Key      string
	Kind     string
	Config   json.RawMessage
	Shots    int
	Failures int
	// Rate, CILow and CIHigh are recomputed from the merged counts (95%
	// Wilson score interval); meaningless when Shots == 0.
	Rate, CILow, CIHigh float64
	Complete            bool
	Segments            int
	NextSeq             int
	Payload             json.RawMessage
}

func (p *Point) addRow(r Row) {
	p.Kind = r.Kind
	if len(r.Config) > 0 {
		p.Config = r.Config
	}
	p.Shots += r.Shots
	p.Failures += r.Failures
	p.Complete = p.Complete || r.Complete
	p.Segments++
	if r.Seq >= p.NextSeq {
		p.NextSeq = r.Seq + 1
		if len(r.Payload) > 0 {
			p.Payload = r.Payload
		}
	}
	if p.Shots > 0 {
		p.Rate = float64(p.Failures) / float64(p.Shots)
		p.CILow, p.CIHigh = mc.WilsonInterval(p.Failures, p.Shots, mc.DefaultZ)
	}
}

// Store is an open JSONL result store. It is safe for concurrent use; the
// point-level worker pool appends from many goroutines.
type Store struct {
	mu        sync.Mutex
	path      string
	f         *os.File
	opts      Options
	points    map[string]*Point
	seen      map[string]bool // key\x00seq dedup — identical segments replay identically
	corrupted int
	repair    RepairReport
	lastSync  time.Time
}

// encodeRow renders one v2 store line: the row's JSON, a tab, and the
// 8-hex CRC32C of the JSON, newline-terminated. JSON escapes tabs inside
// strings, so the separator is unambiguous.
func encodeRow(r Row) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	line := make([]byte, 0, len(b)+10)
	line = append(line, b...)
	line = append(line, '\t')
	line = appendCRCHex(line, crc32.Checksum(b, crcTable))
	return append(line, '\n'), nil
}

func appendCRCHex(dst []byte, crc uint32) []byte {
	const hexDigits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[(crc>>shift)&0xf])
	}
	return dst
}

// decodeLine parses one store line in either row format. A v2 line (tab +
// 8-hex CRC32C suffix) is verified against its checksum; anything else is
// read as a bare v1 JSON row, so stores written before the checksum format
// stay readable. ok is false for torn, corrupt, or checksum-failing lines.
func decodeLine(line []byte) (Row, bool) {
	var r Row
	data := line
	if i := strings.LastIndexByte(string(line), '\t'); i >= 0 {
		suffix := line[i+1:]
		if len(suffix) != 8 {
			return r, false
		}
		var crc uint32
		for _, c := range suffix {
			switch {
			case c >= '0' && c <= '9':
				crc = crc<<4 | uint32(c-'0')
			case c >= 'a' && c <= 'f':
				crc = crc<<4 | uint32(c-'a'+10)
			default:
				return r, false
			}
		}
		data = line[:i]
		if crc32.Checksum(data, crcTable) != crc {
			return r, false
		}
	}
	if err := json.Unmarshal(data, &r); err != nil || r.Key == "" {
		return Row{}, false
	}
	return r, true
}

// Open reads (or creates) the store at path with default Options.
func Open(path string) (*Store, error) {
	return OpenWith(path, Options{})
}

// OpenWith reads (or creates) the store at path, merging every parsable
// row into the in-memory index and repairing crash damage:
//
//   - Unparsable lines in the middle of the file — followed by valid rows,
//     so not a crash tail — are tolerated and counted (Corrupted), never
//     fatal.
//   - A torn tail (an append cut short by a crash: an unterminated or
//     checksum-failing final run of lines) is truncated away so the file
//     ends on a committed row again; the loss is reported via Repair and
//     recomputed on resume.
//   - Orphaned GC temp files (a GC killed between temp write and rename)
//     are deleted; the original store file was never touched, so no
//     committed row is lost.
func OpenWith(path string, opts Options) (*Store, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = time.Second
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{path: path, f: f, opts: opts, points: make(map[string]*Point), seen: make(map[string]bool)}
	s.repair.TempsRemoved = removeStaleGCTemps(path)

	// Scan with explicit offsets so the end of the last committed row is
	// known: validEnd advances over parsable (or blank) complete lines,
	// pendingBad counts unparsable ones since the last good line. Bad
	// lines followed by good ones are mid-file corruption (tolerated);
	// bad lines at EOF are a torn tail (truncated).
	br := bufio.NewReaderSize(f, 1<<16)
	var offset, validEnd int64
	pendingBad := 0
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			complete := line[len(line)-1] == '\n'
			offset += int64(len(line))
			content := strings.TrimRight(string(line), "\r\n")
			switch {
			case !complete:
				pendingBad++ // unterminated final line: never committed
			case strings.TrimSpace(content) == "":
				validEnd = offset
			default:
				if r, ok := decodeLine([]byte(content)); ok {
					s.index(r)
					s.corrupted += pendingBad
					pendingBad = 0
					validEnd = offset
				} else {
					pendingBad++
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading %s: %w", path, rerr)
		}
	}
	if pendingBad > 0 || validEnd < offset {
		s.repair.DroppedLines = pendingBad
		s.repair.TruncatedBytes = offset - validEnd
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: repairing torn tail of %s: %w", path, err)
		}
		obsRowsRepaired.Add(int64(pendingBad))
	}
	obsCorruptLines.Add(int64(s.corrupted))
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// gcTempPrefix names the GC temp files of the store at path; it doubles
// as the stale-temp cleanup match.
func gcTempPrefix(path string) string { return ".gc-" + filepath.Base(path) + "." }

// removeStaleGCTemps deletes GC temp files orphaned by a crash between
// temp-file write and rename, returning how many were removed. Cleanup is
// best-effort: an unreadable directory just skips it.
func removeStaleGCTemps(path string) int {
	dir := filepath.Dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	prefix := gcTempPrefix(path)
	removed := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), prefix) {
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				removed++
			}
		}
	}
	return removed
}

// Repair reports what Open had to fix (zero value: nothing).
func (s *Store) Repair() RepairReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repair
}

// index merges r into the in-memory view, dropping duplicate (key, seq)
// rows: segment streams are deterministic, so a duplicate is a replay of
// the same result, not new evidence.
func (s *Store) index(r Row) bool {
	id := r.Key + "\x00" + fmt.Sprint(r.Seq)
	if s.seen[id] {
		return false
	}
	s.seen[id] = true
	p, ok := s.points[r.Key]
	if !ok {
		p = &Point{Key: r.Key}
		s.points[r.Key] = p
	}
	p.addRow(r)
	obsSegmentsMerged.Inc()
	return true
}

// Get returns the merged view of key.
func (s *Store) Get(key string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.points[key]
	if !ok {
		return Point{}, false
	}
	obsRowsServed.Inc()
	return *p, true
}

// Append commits one segment row: one checksummed JSON line written (and
// fsynced per the store's SyncPolicy) before the in-memory index is
// updated. Duplicate (key, seq) rows are ignored. A failed append leaves
// the index untouched, so a retried point re-appends the identical bytes.
func (s *Store) Append(r Row) error {
	if r.Key == "" {
		return fmt.Errorf("store: row has empty key")
	}
	line, err := encodeRow(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := r.Key + "\x00" + fmt.Sprint(r.Seq)
	if s.seen[id] {
		return nil
	}
	if s.opts.BeforeAppend != nil {
		if err := s.opts.BeforeAppend(line); err != nil {
			return fmt.Errorf("store: appending to %s: %w", s.path, err)
		}
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("store: appending to %s: %w", s.path, err)
	}
	switch s.opts.Sync {
	case SyncAlways:
		if err := s.syncLocked(); err != nil {
			return err
		}
	case SyncInterval:
		if time.Since(s.lastSync) >= s.opts.SyncEvery {
			if err := s.syncLocked(); err != nil {
				return err
			}
		}
	}
	s.index(r)
	obsRowsAppended.Inc()
	return nil
}

// Sync flushes appended rows to stable storage regardless of the fsync
// policy — the graceful-shutdown path calls it so every committed point
// survives whatever comes next.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", s.path, err)
	}
	s.lastSync = time.Now()
	obsSyncs.Inc()
	return nil
}

// Len returns the number of distinct points.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Keys returns every point key in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.points))
	for k := range s.points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Corrupted reports how many unparsable lines Open tolerated.
func (s *Store) Corrupted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupted
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Close syncs committed rows to stable storage and releases the backing
// file. The sync happens regardless of SyncPolicy, so a cleanly closed
// store is always durable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	serr := s.syncLocked()
	cerr := s.f.Close()
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return fmt.Errorf("store: closing %s: %w", s.path, cerr)
	}
	return nil
}

// GC compacts the store in place: one merged row per key (summed counts,
// highest-seq payload), corrupted lines dropped, written to a temp file
// and atomically renamed over the original. The store stays open and
// serves the compacted view afterwards.
//
// A compacted segment keeps the merged counts but no longer corresponds to
// a single derivable RNG stream, so it still serves resume and still
// merges with future growth segments. The compacted row keeps the
// highest pre-compaction Seq — NOT 0 — so the segment-stream watermark
// survives on disk: a later session that reopens the file and grows the
// point must never reuse a stream index whose draws are already inside
// the compacted counts (that would double-count correlated samples).
func (s *Store) GC() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.points))
	for k := range s.points {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	tmp, err := os.CreateTemp(filepath.Dir(s.path), gcTempPrefix(s.path)+"*")
	if err != nil {
		return fmt.Errorf("store: gc: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	newPoints := make(map[string]*Point, len(keys))
	newSeen := make(map[string]bool, len(keys))
	for _, k := range keys {
		p := s.points[k]
		seq := p.NextSeq - 1
		if seq < 0 {
			seq = 0
		}
		row := Row{
			Key: k, Kind: p.Kind, Seq: seq,
			Shots: p.Shots, Failures: p.Failures,
			Complete: p.Complete, Config: p.Config, Payload: p.Payload,
		}
		line, err := encodeRow(row)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("store: gc: %w", err)
		}
		if _, err := w.Write(line); err != nil {
			tmp.Close()
			return fmt.Errorf("store: gc: %w", err)
		}
		np := &Point{Key: k}
		np.addRow(row)
		newPoints[k] = np
		newSeen[k+"\x00"+fmt.Sprint(seq)] = true
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: gc: %w", err)
	}
	// Pin the crash window: the temp file reaches stable storage before
	// the rename publishes it, and the directory entry is fsynced after —
	// a kill at any instant leaves either the complete old file or the
	// complete new one (plus, at worst, an orphaned temp that the next
	// Open removes).
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: gc: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: gc: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("store: gc: %w", err)
	}
	syncDir(filepath.Dir(s.path))
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: gc: reopening %s: %w", s.path, err)
	}
	s.f.Close()
	s.f = f
	s.points = newPoints
	s.seen = newSeen
	s.corrupted = 0
	obsGCRuns.Inc()
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some platforms/filesystems reject directory fsync, and the
// rename itself is already crash-atomic for process death.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Key computes the content address of a point configuration: the SHA-256
// of the canonical JSON of (kind, config), hex-truncated to 128 bits.
// Canonicalization recursively sorts object keys, so the hash is stable
// under struct-field reordering and under any map iteration order; Go's
// shortest-round-trip float formatting makes numeric fields stable across
// runs. The config should describe the *generator* of the point — sizes,
// rates, counts, policy and decoder names, seed, adaptive target — not
// expanded artifacts derived from them.
func Key(kind string, config any) (string, error) {
	raw, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("store: hashing config: %w", err)
	}
	canon, err := Canonicalize(raw)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256([]byte(kind + "\x00" + string(canon)))
	return hex.EncodeToString(h[:16]), nil
}

// Canonicalize rewrites a JSON document into the canonical form hashed by
// Key: object keys sorted, no insignificant whitespace, number literals
// preserved verbatim.
func Canonicalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("store: canonicalizing: %w", err)
	}
	var sb strings.Builder
	if err := writeCanonical(&sb, v); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

func writeCanonical(sb *strings.Builder, v any) error {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			sb.Write(kb)
			sb.WriteByte(':')
			if err := writeCanonical(sb, t[k]); err != nil {
				return err
			}
		}
		sb.WriteByte('}')
	case []any:
		sb.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				sb.WriteByte(',')
			}
			if err := writeCanonical(sb, e); err != nil {
				return err
			}
		}
		sb.WriteByte(']')
	case json.Number:
		sb.WriteString(t.String())
	default:
		b, err := json.Marshal(t)
		if err != nil {
			return err
		}
		sb.Write(b)
	}
	return nil
}

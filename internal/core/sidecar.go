package core

// Host-side persistence for file-backed databases. The flash image alone
// is not enough to reopen a GhostDB: the paper's model keeps the visible
// (non-hidden) column data and the catalog on the untrusted server, with
// only hidden data and indexes on the device. A file-backed database
// therefore pairs the device directory with a JSON sidecar holding the
// DDL and the visible columns of the recoverable committed versions —
// the exact state Snapshot carries in memory — replaced atomically before
// every commit record is written. OpenPath reads the sidecar plus the
// on-disk flash image and lands on the newest fully committed version,
// exactly like Recover over an in-memory snapshot.

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/filedev"
	"github.com/ghostdb/ghostdb/internal/value"
)

// sidecarName is the sidecar's filename inside a device directory.
const sidecarName = "meta.json"

// sidecarDoc is the JSON document persisted next to a file-backed
// device: catalog DDL plus the server-durable visible columns of the
// committed versions still recoverable from the A/B record slots.
type sidecarDoc struct {
	Version uint64          `json:"version"`
	DDL     []string        `json:"ddl"`
	Commits []sidecarCommit `json:"commits"`
}

// sidecarCommit is one committed version's visible column data.
type sidecarCommit struct {
	Version uint64         `json:"v"`
	Tables  []sidecarTable `json:"tables"`
}

type sidecarTable struct {
	Name string       `json:"name"`
	Cols []sidecarCol `json:"cols,omitempty"`
}

type sidecarCol struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	// Data is the column's values in the canonical value encoding,
	// concatenated (JSON base64s it).
	Data []byte `json:"data"`
}

// encodeSidecar renders the sidecar document of a committed state:
// exactly the bytes json.Marshal of its sidecarDoc produces, which the
// tests hold it to. It writes them in one typed walk into one buffer,
// sized by a first walk that only counts; each column's cells are
// encoded into one reused scratch buffer and base64ed from there. It only
// reads its arguments, so it may run beside the rebuild it commits.
func encodeSidecar(version uint64, ddl []string, committed map[uint64]visImage) []byte {
	w := &sidecarWriter{}
	w.doc(version, ddl, committed)
	w.buf, w.cells = make([]byte, 0, w.n), make([]byte, 0, w.most)
	w.doc(version, ddl, committed)
	return w.buf
}

// sidecarWriter is encodeSidecar's walk: with buf nil it counts bytes in
// n (and the largest column's cells in most), otherwise it appends them
// to buf.
type sidecarWriter struct {
	buf   []byte
	n     int
	most  int
	cells []byte // one column's cells, before base64
}

func (w *sidecarWriter) doc(version uint64, ddl []string, committed map[uint64]visImage) {
	w.raw(`{"version":`)
	w.uint(version)
	w.raw(`,"ddl":`)
	if ddl == nil {
		w.raw("null")
	} else {
		w.raw("[")
		for i, stmt := range ddl {
			if i > 0 {
				w.raw(",")
			}
			w.quoted(stmt)
		}
		w.raw("]")
	}
	w.raw(`,"commits":`)
	if len(committed) == 0 {
		w.raw("null")
	}
	for i, v := range sortedKeys(committed) {
		w.raw(cond(i == 0, "[", ","))
		w.raw(`{"v":`)
		w.uint(v)
		w.raw(`,"tables":`)
		tables := committed[v]
		if len(tables) == 0 {
			w.raw("null")
		}
		for j, t := range sortedKeys(tables) {
			w.raw(cond(j == 0, "[", ","))
			w.raw(`{"name":`)
			w.quoted(t)
			for k, c := range sortedKeys(tables[t]) { // "cols" is omitted when empty
				w.raw(cond(k == 0, `,"cols":[`, ","))
				col := tables[t][c]
				w.raw(`{"name":`)
				w.quoted(c)
				w.raw(`,"rows":`)
				w.uint(uint64(col.Len()))
				w.raw(`,"data":`)
				w.column(col)
				w.raw("}")
			}
			if len(tables[t]) > 0 {
				w.raw("]")
			}
			w.raw("}")
		}
		if len(tables) > 0 {
			w.raw("]")
		}
		w.raw("}")
	}
	if len(committed) > 0 {
		w.raw("]")
	}
	w.raw("}")
}

// cond returns a when c holds, else b.
func cond(c bool, a, b string) string {
	if c {
		return a
	}
	return b
}

func (w *sidecarWriter) raw(s string) {
	w.n += len(s)
	if w.buf != nil {
		w.buf = append(w.buf, s...)
	}
}

func (w *sidecarWriter) uint(v uint64) {
	var digits [20]byte
	w.n += len(strconv.AppendUint(digits[:0], v, 10))
	if w.buf != nil {
		w.buf = strconv.AppendUint(w.buf, v, 10)
	}
}

// quoted writes s as a JSON string the way encoding/json does. A name
// or statement of printable ASCII with nothing to escape — HTML's <, >
// and & included — is copied between quotes; any other goes through
// json.Marshal itself.
func (w *sidecarWriter) quoted(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			w.n += len(q)
			if w.buf != nil {
				w.buf = append(w.buf, q...)
			}
			return
		}
	}
	w.raw(`"`)
	w.raw(s)
	w.raw(`"`)
}

// column writes a column's cells in the canonical value encoding,
// concatenated and base64ed as encoding/json writes a []byte — null for
// an empty column, whose byte slice the document held as nil.
func (w *sidecarWriter) column(col value.Column) {
	if col.Len() == 0 {
		w.raw("null")
		return
	}
	if w.buf == nil {
		size := col.EncodedSize()
		w.n += 2 + base64.StdEncoding.EncodedLen(size)
		w.most = max(w.most, size)
		return
	}
	w.cells = col.AppendEncoded(w.cells[:0])
	w.buf = append(w.buf, '"')
	w.buf = base64.StdEncoding.AppendEncode(w.buf, w.cells)
	w.buf = append(w.buf, '"')
}

// writeAtomic replaces path via a temp-file-and-rename. When durable is
// set it fsyncs the temp file first, so the rename never exposes a
// partially written sidecar, and the directory afterwards, so a power
// cut cannot lose the rename while the commit record it belongs to
// survives.
func writeAtomic(path string, blob []byte, durable bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil || !durable {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return err
	}
	return dir.Close()
}

// readSidecar loads and decodes one device directory's sidecar.
func readSidecar(dir string) (*sidecarDoc, error) {
	raw, err := os.ReadFile(filepath.Join(dir, sidecarName))
	if err != nil {
		return nil, fmt.Errorf("core: reading sidecar: %w", err)
	}
	var doc sidecarDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("core: corrupt sidecar %s: %w", filepath.Join(dir, sidecarName), err)
	}
	return &doc, nil
}

// visMap decodes the sidecar's committed visible columns back into the
// engine's per-version images. A column's kind is its cells' (an empty
// one has none); recovery holds it to the schema.
func (d *sidecarDoc) visMap() (map[uint64]visImage, error) {
	out := make(map[uint64]visImage, len(d.Commits))
	for _, commit := range d.Commits {
		tm := make(visImage, len(commit.Tables))
		for _, t := range commit.Tables {
			cm := make(map[string]value.Column, len(t.Cols))
			for _, c := range t.Cols {
				var col value.Column
				rest := c.Data
				for i := 0; i < c.Rows; i++ {
					v, n, err := value.Decode(rest)
					if i == 0 {
						col = value.MakeColumn(v.Kind(), c.Rows)
					}
					if err == nil && (v.Kind() != col.Kind || !v.IsValid()) {
						err = fmt.Errorf("a %s in a %s column", v.Kind(), col.Kind)
					}
					if err != nil {
						return nil, fmt.Errorf("core: sidecar column %s.%s row %d: %w", t.Name, c.Name, i, err)
					}
					col.Append(v)
					rest = rest[n:]
				}
				if len(rest) != 0 {
					return nil, fmt.Errorf("core: sidecar column %s.%s has %d trailing bytes", t.Name, c.Name, len(rest))
				}
				cm[c.Name] = col
			}
			tm[t.Name] = cm
		}
		out[commit.Version] = tm
	}
	return out, nil
}

// PathHoldsDatabase reports whether dir holds a file-backed GhostDB
// (single-device or sharded) that OpenPath can reopen.
func PathHoldsDatabase(dir string) bool {
	return filedev.Exists(dir) || filedev.Exists(shardPath(dir, 0))
}

// OpenPath reopens a file-backed database from its on-disk state: the
// device directory's flash image (or the shardN subdirectories of a
// sharded one) plus the sidecar's catalog and visible columns. It lands
// on the newest version fully committed across all devices, exactly as
// Recover does from an in-memory snapshot — a process kill mid-commit
// rolls back to the previous committed version; uncommitted delta
// mutations are lost by design.
//
// The options parameterize the reopened engine (profile, batch size,
// shard count must match the on-disk layout if given); the backend is
// forced to the file backend at dir. Contrast Open with WithBackend,
// which CREATES a database at the path, wiping previous contents.
func OpenPath(dir string, options ...Option) (*DB, *RecoverInfo, error) {
	opts := defaultOptions()
	for _, o := range options {
		o(&opts)
	}
	var dirs []string
	switch {
	case filedev.Exists(dir):
		dirs = []string{dir}
	case filedev.Exists(shardPath(dir, 0)):
		for i := 0; filedev.Exists(shardPath(dir, i)); i++ {
			dirs = append(dirs, shardPath(dir, i))
		}
	default:
		return nil, nil, fmt.Errorf("core: no file-backed database at %s", dir)
	}
	if len(dirs) > 1 {
		if opts.Shards > 1 && opts.Shards != len(dirs) {
			return nil, nil, fmt.Errorf("core: %s holds %d shards, options ask for %d", dir, len(dirs), opts.Shards)
		}
		opts.Shards = len(dirs)
	} else if opts.Shards > 1 {
		return nil, nil, fmt.Errorf("core: %s holds a single-device database, options ask for %d shards", dir, opts.Shards)
	}
	opts.Backend.Kind = storage.KindFile
	opts.Backend.Path = dir

	snap := &Snapshot{opts: opts}
	for i, d := range dirs {
		doc, err := readSidecar(d)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			snap.ddl = doc.DDL
		}
		vis, err := doc.visMap()
		if err != nil {
			return nil, nil, err
		}
		// Lift the flash image into memory before Recover rebuilds (and
		// wipes) the directory. The read pass never writes, so fsync off.
		fd, err := filedev.Open(d, opts.Profile.Flash, false)
		if err != nil {
			return nil, nil, err
		}
		img, err := fd.Image()
		fd.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("core: imaging %s: %w", d, err)
		}
		snap.shards = append(snap.shards, shardState{img: img, vis: vis})
	}
	return Recover(snap)
}

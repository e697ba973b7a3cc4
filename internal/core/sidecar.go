package core

// Host-side persistence for file-backed databases. The flash image alone
// is not enough to reopen a GhostDB: the paper's model keeps the visible
// (non-hidden) column data and the catalog on the untrusted server, with
// only hidden data and indexes on the device. A file-backed database
// therefore pairs the device directory with a JSON sidecar holding the
// DDL and the visible columns of the recoverable committed versions —
// the exact state Snapshot carries in memory — refreshed atomically at
// every commit point. OpenPath reads the sidecar plus the on-disk flash
// image and lands on the newest fully committed version, exactly like
// Recover over an in-memory snapshot.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

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

// persistSidecar atomically rewrites the sidecar of a file-backed
// engine from its current committed state. A no-op on the simulated
// backend. Caller holds the device gate.
func (e *engine) persistSidecar() error {
	if !e.opts.Backend.IsFile() {
		return nil
	}
	doc := sidecarDoc{Version: e.version, DDL: e.ddl}
	for _, v := range sortedKeys(e.committedVis) {
		commit := sidecarCommit{Version: v}
		for _, t := range sortedKeys(e.committedVis[v]) {
			st := sidecarTable{Name: t}
			for _, c := range sortedKeys(e.committedVis[v][t]) {
				col := e.committedVis[v][t][c]
				var data []byte
				for i := range col.Len() {
					data = col.Value(i).Append(data)
				}
				st.Cols = append(st.Cols, sidecarCol{Name: c, Rows: col.Len(), Data: data})
			}
			commit.Tables = append(commit.Tables, st)
		}
		doc.Commits = append(doc.Commits, commit)
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return writeAtomic(filepath.Join(e.opts.Backend.Path, sidecarName), blob, e.opts.Backend.Fsync)
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

package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"querc/internal/doc2vec"
	"querc/internal/lstm"
)

// Registry persists trained embedder models as versioned files, mirroring the
// model store behind Fig. 1's "Model Deployment" arrow. Version numbers
// increase monotonically per model name; loading without a version returns
// the latest. Files are gob-encoded via each model's own Save/Load.
type Registry struct {
	dir string
	mu  sync.Mutex
}

// NewRegistry opens (creating if needed) a registry rooted at dir.
func NewRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: registry: %w", err)
	}
	return &Registry{dir: dir}, nil
}

// kindDoc2vec / kindLSTM tag stored model files.
const (
	kindDoc2vec = "doc2vec"
	kindLSTM    = "lstm"
)

// SaveDoc2Vec stores a doc2vec model under name and returns its new version.
func (r *Registry) SaveDoc2Vec(name string, m *doc2vec.Model) (int, error) {
	return r.save(name, kindDoc2vec, func(f *os.File) error { return m.Save(f) })
}

// SaveLSTM stores an LSTM model under name and returns its new version.
func (r *Registry) SaveLSTM(name string, m *lstm.Model) (int, error) {
	return r.save(name, kindLSTM, func(f *os.File) error { return m.Save(f) })
}

// save writes a new version of name atomically: write fills a temp file in
// the registry directory, which is synced and then renamed to the versioned
// path, and the directory is synced so the rename survives a crash. A crash
// or a failed write therefore never leaves a truncated highest version for
// LoadEmbedder to trip on. Temp names have four dot-separated parts, so the
// version and model listings never see them.
func (r *Registry) save(name, kind string, write func(*os.File) error) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.latestVersionLocked(name) + 1
	path := r.path(name, kind, v)
	f, err := os.CreateTemp(r.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("core: registry save: %w", err)
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, fmt.Errorf("core: registry save %s: %w", name, err)
	}
	if err := syncDir(r.dir); err != nil {
		return 0, fmt.Errorf("core: registry save %s: %w", name, err)
	}
	return v, nil
}

// syncDir flushes dir's entries (a completed rename) to stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadEmbedder loads the latest version of the named model and wraps it as
// an Embedder. The wrapped embedder's Name() is version-qualified (e.g.
// "doc2vec(prod@v2)"): Embedder.Name() keys both the embedding-plane
// grouping and the shared vector cache, so two versions of one model —
// different weights, different vector spaces — must never share an identity,
// or stale cached vectors from the old version would silently feed labelers
// fitted against the new one.
func (r *Registry) LoadEmbedder(name string) (Embedder, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.latestVersionLocked(name)
	if v == 0 {
		return nil, 0, fmt.Errorf("core: registry: no versions of model %q", name)
	}
	versioned := fmt.Sprintf("%s@v%d", name, v)
	for _, kind := range []string{kindDoc2vec, kindLSTM} {
		path := r.path(name, kind, v)
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		defer f.Close()
		switch kind {
		case kindDoc2vec:
			m, err := doc2vec.Load(f)
			if err != nil {
				return nil, 0, err
			}
			return &Doc2VecEmbedder{Model: m, ModelName: versioned}, v, nil
		case kindLSTM:
			m, err := lstm.Load(f)
			if err != nil {
				return nil, 0, err
			}
			return &LSTMEmbedder{Model: m, ModelName: versioned}, v, nil
		}
	}
	return nil, 0, fmt.Errorf("core: registry: version %d of %q unreadable", v, name)
}

// Versions lists stored versions for name in ascending order.
func (r *Registry) Versions(name string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.versionsLocked(name)
}

// Models lists the distinct model names in the registry.
func (r *Registry) Models() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range entries {
		parts := strings.Split(e.Name(), ".")
		if len(parts) == 3 && !seen[parts[0]] {
			seen[parts[0]] = true
			out = append(out, parts[0])
		}
	}
	sort.Strings(out)
	return out
}

func (r *Registry) path(name, kind string, version int) string {
	return filepath.Join(r.dir, fmt.Sprintf("%s.%s.%06d", name, kind, version))
}

func (r *Registry) latestVersionLocked(name string) int {
	vs := r.versionsLocked(name)
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1]
}

func (r *Registry) versionsLocked(name string) []int {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		parts := strings.Split(e.Name(), ".")
		if len(parts) != 3 || parts[0] != name {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(parts[2], "%d", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

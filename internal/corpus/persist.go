package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"regcoal/internal/graph"
)

// Disk layout: one directory per family holding a manifest plus every
// instance in both serialization formats —
//
//	<root>/<family>/manifest.json
//	<root>/<family>/<name>.graph   native textual format (graph.File)
//	<root>/<family>/<name>.col     DIMACS with regcoal comments
//
// The manifest records the generator version and seed plus a checksum per
// instance, so a loaded corpus can prove it matches what the generator
// would produce today.

// InstanceMeta is one manifest entry.
type InstanceMeta struct {
	Name       string `json:"name"`
	Index      int    `json:"index"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	Moves      int    `json:"moves"`
	MoveWeight int64  `json:"move_weight"`
	K          int    `json:"k"`
	// SHA256 is the hex digest of the native serialization.
	SHA256 string `json:"sha256"`
}

// Manifest describes one persisted family.
type Manifest struct {
	Family    string         `json:"family"`
	Version   int            `json:"version"`
	Seed      int64          `json:"seed"`
	Quick     bool           `json:"quick"`
	Instances []InstanceMeta `json:"instances"`
}

// NewManifest summarizes generated instances into a manifest.
func NewManifest(f *Family, p Params, insts []*Instance) (*Manifest, error) {
	m := &Manifest{Family: f.Name, Version: f.Version, Seed: p.Seed, Quick: p.Quick}
	for _, inst := range insts {
		native, err := nativeBytes(inst.File)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(native)
		m.Instances = append(m.Instances, InstanceMeta{
			Name:       inst.Name,
			Index:      inst.Index,
			Vertices:   inst.File.G.N(),
			Edges:      inst.File.G.E(),
			Moves:      inst.File.G.NumAffinities(),
			MoveWeight: inst.File.G.TotalAffinityWeight(),
			K:          inst.File.K,
			SHA256:     hex.EncodeToString(sum[:]),
		})
	}
	return m, nil
}

func nativeBytes(f *graph.File) ([]byte, error) {
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func dimacsBytes(f *graph.File) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.WriteDIMACSFile(&buf, f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteFamilyDir generates the family for p and persists it under root,
// returning the instances and manifest.
func WriteFamilyDir(root string, f *Family, p Params) ([]*Instance, *Manifest, error) {
	insts, err := f.Build(p)
	if err != nil {
		return nil, nil, err
	}
	m, err := NewManifest(f, p, insts)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(root, f.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	for _, inst := range insts {
		native, err := nativeBytes(inst.File)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, inst.Name+".graph"), native, 0o644); err != nil {
			return nil, nil, err
		}
		col, err := dimacsBytes(inst.File)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, inst.Name+".col"), col, 0o644); err != nil {
			return nil, nil, err
		}
	}
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	mj = append(mj, '\n')
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), mj, 0o644); err != nil {
		return nil, nil, err
	}
	return insts, m, nil
}

// LoadFamilyDir loads a persisted family from root, verifying each
// instance's checksum against the manifest and the agreement of the two
// serialization formats.
func LoadFamilyDir(root, family string) ([]*Instance, *Manifest, error) {
	dir := filepath.Join(root, family)
	mj, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, nil, err
	}
	var m Manifest
	if err := json.Unmarshal(mj, &m); err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: bad manifest: %w", family, err)
	}
	if m.Family != family {
		return nil, nil, fmt.Errorf("corpus: manifest family %q does not match directory %q", m.Family, family)
	}
	var insts []*Instance
	for _, meta := range m.Instances {
		native, err := os.ReadFile(filepath.Join(dir, meta.Name+".graph"))
		if err != nil {
			return nil, nil, err
		}
		sum := sha256.Sum256(native)
		if got := hex.EncodeToString(sum[:]); got != meta.SHA256 {
			return nil, nil, fmt.Errorf("corpus: %s/%s: checksum mismatch (corpus regenerated with a different generator version?)", family, meta.Name)
		}
		f, err := graph.ReadFrom(bytes.NewReader(native), 0)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s/%s: %w", family, meta.Name, err)
		}
		col, err := os.ReadFile(filepath.Join(dir, meta.Name+".col"))
		if err != nil {
			return nil, nil, err
		}
		df, err := graph.ReadDIMACSFile(bytes.NewReader(col), 0)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s/%s.col: %w", family, meta.Name, err)
		}
		if !graph.EqualFiles(f, df) {
			return nil, nil, fmt.Errorf("corpus: %s/%s: native and DIMACS serializations disagree", family, meta.Name)
		}
		insts = append(insts, &Instance{Family: family, Index: meta.Index, Name: meta.Name, File: f})
	}
	return insts, &m, nil
}

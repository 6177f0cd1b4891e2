package tile

import (
	"slices"
	"sync"

	"mnpusim/internal/model"
)

// buildKey identifies a cached schedule: the tiling parameters, the
// network's name and layer count, and a hash of its layers. Equal
// networks always share a key; a key shared by two different networks
// (a hash collision) is caught by comparing the layers themselves.
type buildKey struct {
	p      Params
	name   string
	layers int
	hash   uint64
}

// buildCell is one cache entry; Once serializes the single Build for a
// key while letting other keys proceed concurrently. layers is the
// network the entry was built from, fixed when the cell is created.
type buildCell struct {
	once   sync.Once
	layers []model.Layer
	sched  *Schedule
	err    error
}

var buildCache = struct {
	mu sync.Mutex
	m  map[buildKey]*buildCell
}{m: make(map[buildKey]*buildCell)}

// hashLayers hashes every field of every layer with FNV-1a, a word at
// a time for the integer fields.
func hashLayers(layers []model.Layer) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := range layers {
		l := &layers[i]
		for j := 0; j < len(l.Name); j++ {
			h = (h ^ uint64(l.Name[j])) * prime
		}
		for _, v := range [...]int{
			len(l.Name), int(l.Kind), l.InC, l.InH, l.InW, l.OutC, l.KH, l.KW, l.Stride, l.Pad,
			l.M, l.K, l.N, l.Hidden, l.Input, l.TableRows, l.EmbDim, l.Lookups,
			l.Repeat, l.Heads, l.SeqLen, l.ModelDim,
		} {
			h = (h ^ uint64(v)) * prime
		}
	}
	return h
}

// BuildCached is Build behind a process-wide cache keyed on the full
// network structure and tiling parameters, so the schedule of a (net,
// arch) pair is compiled once no matter how many mixes or experiments
// reuse it. The returned *Schedule is shared across simulations and
// must be treated as immutable — the npu package only ever reads it.
//
// The key must capture the network's layers, not just its name: tests
// and random-network training reuse names with different topologies.
// A hit is confirmed layer by layer, so a network whose key collides
// with a cached one's is built afresh rather than handed the other's
// schedule.
func BuildCached(net model.Network, p Params) (*Schedule, error) {
	key := buildKey{p: p, name: net.Name, layers: len(net.Layers), hash: hashLayers(net.Layers)}
	buildCache.mu.Lock()
	cell, ok := buildCache.m[key]
	if !ok {
		cell = &buildCell{layers: slices.Clone(net.Layers)}
		buildCache.m[key] = cell
	}
	buildCache.mu.Unlock()
	if !slices.Equal(cell.layers, net.Layers) {
		return Build(net, p)
	}
	cell.once.Do(func() { cell.sched, cell.err = Build(net, p) })
	return cell.sched, cell.err
}

package tile

import (
	"reflect"
	"testing"

	"mnpusim/internal/model"
)

// TestBuildCachedKeysOnLayers checks what the cache treats as one
// network: equal layers in another slice hit, a network that reuses a
// name with other layers misses, and a hit allocates nothing.
func TestBuildCachedKeysOnLayers(t *testing.T) {
	p := testParams()
	a, err := BuildCached(fcNet(16, 32, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	again, err := BuildCached(fcNet(16, 32, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	if again != a {
		t.Error("an equal network in a fresh slice missed the cache")
	}
	other, err := BuildCached(fcNet(16, 32, 32), p)
	if err != nil {
		t.Fatal(err)
	}
	if other == a {
		t.Error("a network reusing the name with other layers hit the cache")
	}
	net := fcNet(16, 32, 16)
	if n := testing.AllocsPerRun(100, func() { BuildCached(net, p) }); n != 0 {
		t.Errorf("a cache hit allocates %.0f times, want 0", n)
	}
}

// TestBuildCachedCollisionBuildsAfresh plants another network's entry
// under a network's key, as a hash collision would, and checks the
// colliding network is built from its own layers rather than handed
// the planted schedule.
func TestBuildCachedCollisionBuildsAfresh(t *testing.T) {
	p := testParams()
	net := model.Network{Name: "collide", Layers: []model.Layer{{Name: "fc", Kind: model.FC, M: 16, K: 64, N: 16}}}
	planted, err := Build(fcNet(16, 32, 16), p)
	if err != nil {
		t.Fatal(err)
	}
	key := buildKey{p: p, name: net.Name, layers: len(net.Layers), hash: hashLayers(net.Layers)}
	cell := &buildCell{layers: fcNet(16, 32, 16).Layers, sched: planted}
	cell.once.Do(func() {})
	buildCache.mu.Lock()
	buildCache.m[key] = cell
	buildCache.mu.Unlock()
	defer func() {
		buildCache.mu.Lock()
		delete(buildCache.m, key)
		buildCache.mu.Unlock()
	}()

	got, err := BuildCached(net, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(net, p)
	if err != nil {
		t.Fatal(err)
	}
	if got == planted || !reflect.DeepEqual(got, want) {
		t.Error("a colliding key returned the planted network's schedule")
	}
}

// TestHashLayersCoversEveryField sets each field of a layer in turn and
// checks the hash moves, so a field added to model.Layer cannot be left
// out of the key (which would make networks differing only in it
// collide and build afresh on every call).
func TestHashLayersCoversEveryField(t *testing.T) {
	zero := hashLayers([]model.Layer{{}})
	typ := reflect.TypeOf(model.Layer{})
	for i := 0; i < typ.NumField(); i++ {
		var l model.Layer
		f := reflect.ValueOf(&l).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint8:
			f.SetUint(1)
		default:
			t.Fatalf("field %s has kind %s, which this test cannot set", typ.Field(i).Name, f.Kind())
		}
		if hashLayers([]model.Layer{l}) == zero {
			t.Errorf("setting field %s leaves the layer hash unchanged", typ.Field(i).Name)
		}
	}
}

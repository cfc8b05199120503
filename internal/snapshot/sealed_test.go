package snapshot

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"disco/internal/graph"
	"disco/internal/vicinity"
)

// TestSealedSurface holds the immutability contract to the types that hand
// out route state: no exported method of Snapshot, Row or vicinity.Window
// returns a slice, map, chan or func, and a pointer only to a sealed type,
// whose own surface exposes nothing writable. exempt names the methods
// whose result is not shared storage, each with the reason; an exemption
// no method needs is stale.
func TestSealedSurface(t *testing.T) {
	sealed := map[reflect.Type]bool{
		reflect.TypeFor[Snapshot]():        true,
		reflect.TypeFor[vicinity.Window](): true,
		reflect.TypeFor[graph.Graph]():     true, // AddEdge panics once finalized
	}
	exempt := map[string]string{
		"Snapshot.PathFrom":           "a fresh path per call",
		"Snapshot.AppendPathFrom":     "appends to the caller's dst",
		"Snapshot.AppendVicinityPath": "appends to the caller's dst",
		"Snapshot.AppendMembers":      "appends to the caller's dst",
		"Snapshot.CanonicalBytes":     "a fresh encoding per call",
		"Snapshot.RepairStats":        "a copy of the repair's statistics",
		"Window.AppendPath":           "appends to the caller's dst",
	}
	used := make(map[string]bool)
	for _, typ := range []reflect.Type{
		reflect.TypeFor[*Snapshot](), reflect.TypeFor[Row](), reflect.TypeFor[*vicinity.Window](),
	} {
		named := typ
		if named.Kind() == reflect.Pointer {
			named = named.Elem()
		}
		for i := range typ.NumMethod() {
			m := typ.Method(i)
			name := named.Name() + "." + m.Name
			for j := range m.Type.NumOut() {
				switch out := m.Type.Out(j); out.Kind() {
				case reflect.Slice, reflect.Map, reflect.Chan, reflect.Func, reflect.Pointer:
					switch {
					case out.Kind() == reflect.Pointer && sealed[out.Elem()]:
					case exempt[name] != "":
						used[name] = true
					default:
						t.Errorf("%s returns %v: storage a caller could write", name, out)
					}
				}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(exempt)) {
		if !used[name] {
			t.Errorf("exemption %s (%s) exempts nothing", name, exempt[name])
		}
	}
}

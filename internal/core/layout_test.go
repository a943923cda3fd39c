package core

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestEventLayout pins an Event at one cache line with no pointer in it.
// At a halo burst the queue holds six events per rank, so their size is
// a share of every rank's footprint, and a pointer anywhere in the type
// would make every queue chunk an object the collector scans and every
// copy into or out of the queue a barriered one.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 64: one cache line per queued event", got)
	}
	if path := pointerIn(reflect.TypeOf(Event{}), "Event"); path != "" {
		t.Errorf("Event holds a pointer at %s: its queue chunks would be scanned and its copies barriered", path)
	}
}

// pointerIn returns the path to the first field of t whose type holds a
// pointer (a pointer, interface, slice, map, string, channel or func), or
// "" if t holds none.
func pointerIn(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.String, reflect.Chan, reflect.Func:
		return path + " (" + t.String() + ")"
	}
	return ""
}

package tofino

import (
	"reflect"
	"testing"
)

// TestTargetKeySpelling pins the one spelling of the hardware model in
// cache keys. The strings below are what core's compile keys and fleet's
// device keys hashed before Key existed (each package rendered them with a
// Sprintf of its own), so spilled entries survive; and a Target that gains
// a field fails here until Key — and therefore every key — covers it.
func TestTargetKeySpelling(t *testing.T) {
	if got, want := DefaultTarget().Key(), "12/262144/65536/16/0"; got != want {
		t.Errorf("DefaultTarget().Key() = %q, want %q", got, want)
	}
	custom := Target{Stages: 7, StageSRAMBytes: 1000, StageTCAMBytes: 200, MaxTablesPerStage: 3, StageALUs: 5}
	if got, want := custom.Key(), "7/1000/200/3/5"; got != want {
		t.Errorf("custom Key() = %q, want %q", got, want)
	}
	if n := reflect.TypeOf(Target{}).NumField(); n != 5 {
		t.Fatalf("Target has %d fields and Key spells 5: add the new field to Key (two targets that differ only in it must not share cache entries)", n)
	}
	// Every field moves the key.
	base := reflect.ValueOf(custom)
	for i := 0; i < base.NumField(); i++ {
		v := reflect.New(base.Type()).Elem()
		v.Set(base)
		v.Field(i).SetInt(v.Field(i).Int() + 1)
		if v.Interface().(Target).Key() == custom.Key() {
			t.Errorf("Key ignores field %s", base.Type().Field(i).Name)
		}
	}
}

package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"p2pbackup/internal/churn"
)

// TestConfigJSONRoundTrip: a supervised campaign sends each worker its
// variant's Config as JSON, so every exported field must survive
// encoding/json but the three that hold built or live objects, which
// are tagged `json:"-"` and come back zero. Every field is set to a
// non-zero value by reflection, so a field added later without a wire
// form fails here, not in a supervised run.
func TestConfigJSONRoundTrip(t *testing.T) {
	noWire := map[string]bool{"Profiles": true, "Replay": true, "Probes": true}
	cfg := Config{Profiles: churn.PaperProfiles(), Replay: &churn.Trace{}, Probes: []Probe{BaseProbe{}}}
	v := reflect.ValueOf(&cfg).Elem()
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		if tagged := f.Tag.Get("json") == "-"; tagged != noWire[f.Name] {
			t.Errorf("%s: tagged json:\"-\" is %v, want %v", f.Name, tagged, noWire[f.Name])
		}
		if !noWire[f.Name] {
			fill(t, v.Field(i))
		}
		if v.Field(i).IsZero() {
			t.Fatalf("%s: left zero", f.Name)
		}
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	w := reflect.ValueOf(back)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch {
		case !f.IsExported():
		case noWire[f.Name]:
			if !w.Field(i).IsZero() {
				t.Errorf("%s crossed the wire", f.Name)
			}
		case !reflect.DeepEqual(v.Field(i).Interface(), w.Field(i).Interface()):
			t.Errorf("%s: %#v came back as %#v", f.Name, v.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// fill sets v to a non-zero value: every exported field of a struct, one
// element of a slice, the target of a pointer. Integers take a value
// near the top of their range and floats one without an exact binary
// form, so a lossy encoding shows.
func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1<<(v.Type().Bits()-2) + 7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1<<(v.Type().Bits()-1) + 7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(0.1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(t, s.Index(0))
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem())
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("no non-zero value for a %s", v.Type())
	}
}

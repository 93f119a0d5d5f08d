package cluster

import (
	"reflect"
	"testing"
)

// TestConfigDigest checks the fingerprint's equality contract: equal
// configs hash equal; changing any leaf field — top-level or nested in a
// simulator sub-config — changes the digest. It walks Config by reflection,
// so a field added later without a line in Digest fails here instead of
// silently aliasing persisted cache entries.
func TestConfigDigest(t *testing.T) {
	base := Default()
	if base.Digest() != Default().Digest() {
		t.Fatal("equal configs must produce equal digests")
	}
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := range v.NumField() {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		leaves++
		before := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float()*2 + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: no mutation for kind %s; teach this test and Digest about it", path, v.Kind())
		}
		if base.Digest() == Default().Digest() {
			t.Errorf("mutating %s did not change the digest", path)
		}
		v.Set(before)
	}
	walk("Config", reflect.ValueOf(&base).Elem())
	if base.Digest() != Default().Digest() {
		t.Fatal("the walk did not restore every field")
	}
	if leaves == 0 {
		t.Fatal("walked no fields")
	}
}

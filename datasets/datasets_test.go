package datasets

import (
	"reflect"
	"testing"
)

func TestParseGroupSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"user:city:c0,c1:1:4", true},
		{"user:city:c0,c1:1", false},
		{"user:city:c0,c1:1:4:9", false},
		{"user:city:c0,c1:1:4.5", false},
		{"user:city:c0,c1:1:4abc", false},
		{"user:city:c0,c1:x:4", false},
	} {
		label, attr, values, lower, upper, err := ParseGroupSpec(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("ParseGroupSpec(%q): err = %v, want ok = %v", tc.spec, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if label != "user" || attr != "city" || !reflect.DeepEqual(values, []string{"c0", "c1"}) || lower != 1 || upper != 4 {
			t.Errorf("ParseGroupSpec(%q) = %q %q %q %d %d", tc.spec, label, attr, values, lower, upper)
		}
	}
}

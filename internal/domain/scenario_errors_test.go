package domain

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestUnknownScenarioErrorStructured: BuildScenario must reject unknown
// scenario names with a typed error carrying the full registry, so an
// HTTP layer can render the valid choices without parsing the message.
func TestUnknownScenarioErrorStructured(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"misspelled", "sedovv"},
		{"case-sensitive", "piston2"},
		{"plausible", "blast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildScenarioCube(ScenarioSpec{Name: tc.in}, DefaultConfig(4))
			if err == nil {
				t.Fatalf("scenario %q accepted", tc.in)
			}
			var use *UnknownScenarioError
			if !errors.As(err, &use) {
				t.Fatalf("error %T is not *UnknownScenarioError: %v", err, err)
			}
			if use.Name != tc.in {
				t.Errorf("Name = %q, want %q", use.Name, tc.in)
			}
			if !reflect.DeepEqual(use.Known, ScenarioNames()) {
				t.Errorf("Known = %v, want %v", use.Known, ScenarioNames())
			}
			for _, n := range use.Known {
				if !strings.Contains(err.Error(), n) {
					t.Errorf("message %q does not list valid scenario %q", err, n)
				}
			}
		})
	}
}

// TestUnknownOptionErrorStructured: every scenario must reject unknown
// option keys with a typed error naming the key and the scenario's valid
// keys — the structure luleshd's 400 responses expose to clients.
func TestUnknownOptionErrorStructured(t *testing.T) {
	cases := []struct {
		name        string
		spec        ScenarioSpec
		wantKey     string
		wantAllowed []string
	}{
		{
			name:        "sedov takes no options",
			spec:        ScenarioSpec{Name: "sedov", Options: map[string]string{"speed": "3"}},
			wantKey:     "speed",
			wantAllowed: []string{},
		},
		{
			name:        "piston misspelled key",
			spec:        ScenarioSpec{Name: "piston", Options: map[string]string{"sped": "3"}},
			wantKey:     "sped",
			wantAllowed: []string{"speed"},
		},
		{
			name: "multimat foreign key",
			spec: ScenarioSpec{Name: "multimat",
				Options: map[string]string{"speed": "3"}},
			wantKey:     "speed",
			wantAllowed: []string{"regions", "cost", "balance"},
		},
		{
			name: "deterministic offender with several unknown keys",
			spec: ScenarioSpec{Name: "multimat",
				Options: map[string]string{"zzz": "1", "aaa": "1"}},
			wantKey:     "aaa", // sorted order: aaa reported first
			wantAllowed: []string{"regions", "cost", "balance"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildScenarioCube(tc.spec, DefaultConfig(4))
			if err == nil {
				t.Fatalf("spec %v accepted", tc.spec)
			}
			var uoe *UnknownOptionError
			if !errors.As(err, &uoe) {
				t.Fatalf("error %T is not *UnknownOptionError: %v", err, err)
			}
			if uoe.Scenario != tc.spec.Name {
				t.Errorf("Scenario = %q, want %q", uoe.Scenario, tc.spec.Name)
			}
			if uoe.Key != tc.wantKey {
				t.Errorf("Key = %q, want %q", uoe.Key, tc.wantKey)
			}
			if len(uoe.Allowed) != len(tc.wantAllowed) {
				t.Fatalf("Allowed = %v, want %v", uoe.Allowed, tc.wantAllowed)
			}
			for i := range uoe.Allowed {
				if uoe.Allowed[i] != tc.wantAllowed[i] {
					t.Fatalf("Allowed = %v, want %v", uoe.Allowed, tc.wantAllowed)
				}
			}
			// The message itself must name the offender and each valid key.
			if !strings.Contains(err.Error(), tc.wantKey) {
				t.Errorf("message %q does not name the unknown key %q", err, tc.wantKey)
			}
			for _, k := range tc.wantAllowed {
				if !strings.Contains(err.Error(), k) {
					t.Errorf("message %q does not list valid key %q", err, k)
				}
			}
		})
	}
}

// TestValidateScenarioSpecStructuredErrors: the up-front validation path
// used by drivers (and luleshd admission) must surface the same typed
// errors as Build.
func TestValidateScenarioSpecStructuredErrors(t *testing.T) {
	var use *UnknownScenarioError
	if err := ValidateScenarioSpec(ScenarioSpec{Name: "nope"}); !errors.As(err, &use) {
		t.Fatalf("ValidateScenarioSpec(unknown name) = %v, want *UnknownScenarioError", err)
	}
	var uoe *UnknownOptionError
	err := ValidateScenarioSpec(ScenarioSpec{Name: "piston",
		Options: map[string]string{"bogus": "1"}})
	if !errors.As(err, &uoe) {
		t.Fatalf("ValidateScenarioSpec(unknown option) = %v, want *UnknownOptionError", err)
	}
	if uoe.Key != "bogus" || uoe.Scenario != "piston" {
		t.Fatalf("got %+v, want Key=bogus Scenario=piston", uoe)
	}
}

// TestBuildScenarioRejectsHostileBox: a box configuration can arrive from
// a checkpoint or a job spec, so BuildScenario must refuse one that would
// allocate without bound or overflow the region draw's weight sum —
// and must decide quickly either way.
func TestBuildScenarioRejectsHostileBox(t *testing.T) {
	box := func(numReg, balance int) BoxConfig {
		return BoxConfig{Nx: 2, Ny: 2, Nz: 2, NumReg: numReg, Balance: balance, Cost: 1}
	}
	for _, tc := range []struct {
		name string
		cfg  BoxConfig
		ok   bool
	}{
		{"zero edge", BoxConfig{Nx: 0, Ny: 2, Nz: 2, NumReg: 1}, false},
		{"huge edge", BoxConfig{Nx: 1 << 11, Ny: 2, Nz: 2, NumReg: 1}, false},
		{"no regions", box(0, 1), false},
		{"too many regions", box(1<<16+1, 1), false},
		{"weights overflow", box(2, 64), false},
		{"weight sum overflows", box(1<<16, 4), false},
		{"one region ignores balance", box(1, 1<<40), true},
		{"reference defaults", box(11, 1), true},
		{"largest multimat", box(512, 4), true},
		{"many regions", box(1<<16, 1), true},
	} {
		_, err := BuildScenario(ScenarioSpec{}, tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
}

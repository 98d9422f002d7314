package domain

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"lulesh/internal/mesh"
)

// The registered scenario names. Every Domain is stamped with the scenario
// that built it (Domain.Scenario); checkpoints persist the stamp so restore
// rebuilds the immutable topology through the same scenario.
const (
	ScenarioSedov    = "sedov"
	ScenarioPiston   = "piston"
	ScenarioMultimat = "multimat"
)

// ScenarioSpec selects a registered scenario plus its key=value options,
// as parsed from the CLI syntax "name:key=val,key=val". The zero value
// means "unspecified" and resolves to the Sedov default.
type ScenarioSpec struct {
	Name    string
	Options map[string]string
}

// String renders the canonical form of the spec: options sorted by key, so
// two equal specs always print identically (the form stamped into
// checkpoints and BENCH records).
func (s ScenarioSpec) String() string {
	if s.Name == "" {
		return ScenarioSedov
	}
	if len(s.Options) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Options))
	for k := range s.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Options[k])
	}
	return b.String()
}

// Equal reports whether two specs select the same scenario with the same
// effective options. Compare normalized specs (as stamped on a Domain) so
// defaulted and explicit options agree.
func (s ScenarioSpec) Equal(o ScenarioSpec) bool {
	a, b := s, o
	if a.Name == "" {
		a.Name = ScenarioSedov
	}
	if b.Name == "" {
		b.Name = ScenarioSedov
	}
	if a.Name != b.Name || len(a.Options) != len(b.Options) {
		return false
	}
	for k, v := range a.Options {
		if bv, ok := b.Options[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// ParseScenarioSpec parses the CLI scenario syntax:
//
//	""                      -> sedov (the default)
//	"piston"                -> scenario with default options
//	"piston:speed=150"      -> scenario with one option
//	"multimat:regions=96,cost=9"
//
// Parsing is purely syntactic — unknown scenario names and option keys are
// rejected later by Build, which knows the registry. Errors are returned,
// never panicked, for any input (fuzzed).
func ParseScenarioSpec(in string) (ScenarioSpec, error) {
	if in == "" {
		return ScenarioSpec{Name: ScenarioSedov}, nil
	}
	name, rest, hasOpts := strings.Cut(in, ":")
	if name == "" {
		return ScenarioSpec{}, fmt.Errorf("scenario: empty name in %q", in)
	}
	for _, r := range name {
		if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
			return ScenarioSpec{}, fmt.Errorf("scenario: invalid character %q in name %q", r, name)
		}
	}
	spec := ScenarioSpec{Name: name}
	if !hasOpts {
		return spec, nil
	}
	if rest == "" {
		return ScenarioSpec{}, fmt.Errorf("scenario: trailing %q with no options in %q", ":", in)
	}
	spec.Options = make(map[string]string)
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return ScenarioSpec{}, fmt.Errorf("scenario: option %q is not key=value in %q", kv, in)
		}
		if _, dup := spec.Options[k]; dup {
			return ScenarioSpec{}, fmt.Errorf("scenario: duplicate option %q in %q", k, in)
		}
		spec.Options[k] = v
	}
	return spec, nil
}

// UnknownScenarioError reports a spec naming a scenario that is not in the
// registry. It carries the sorted list of registered names so callers
// surfacing the error to users — luleshd's HTTP 400 responses in
// particular — can present the valid choices structurally instead of
// parsing the message.
type UnknownScenarioError struct {
	Name  string   // the unknown scenario name
	Known []string // registered scenario names, sorted
}

func (e *UnknownScenarioError) Error() string {
	return fmt.Sprintf("scenario: unknown scenario %q (have %s)",
		e.Name, strings.Join(e.Known, ", "))
}

// UnknownOptionError reports an option key a scenario does not document.
// Allowed lists the scenario's valid keys (empty when it takes none) so an
// HTTP 400 can tell the client exactly what would have been accepted.
type UnknownOptionError struct {
	Scenario string   // the scenario that rejected the key
	Key      string   // the unknown option key
	Allowed  []string // the scenario's documented keys, in doc order
}

func (e *UnknownOptionError) Error() string {
	if len(e.Allowed) == 0 {
		return fmt.Sprintf("scenario: %s takes no options, got %q", e.Scenario, e.Key)
	}
	return fmt.Sprintf("scenario: %s has no option %q (have %s)",
		e.Scenario, e.Key, strings.Join(e.Allowed, ", "))
}

// OptionDoc documents one scenario option for -h output and the README.
type OptionDoc struct {
	Key     string
	Default string
	Doc     string
}

// Scenario is the problem-setup seam: a registered initial condition
// (energy/velocity fields, boundary conditions, region assignment, time
// stepping) behind which every binary constructs its domains. All
// scenarios run the identical kernels; backends therefore stay bitwise
// comparable per scenario exactly as they are for Sedov.
type Scenario interface {
	// Name is the registry key (the CLI -scenario name).
	Name() string
	// Summary is a one-line physics description.
	Summary() string
	// Stresses says what runtime behaviour the scenario exercises.
	Stresses() string
	// Options documents the accepted key=value options.
	Options() []OptionDoc
	// Build constructs a domain for the box. It must validate opts
	// (unknown keys and out-of-range values are errors, never panics)
	// and stamp the returned Domain's Scenario with the full effective
	// option set, so rebuilt domains (checkpoint restore) are identical.
	Build(cfg BoxConfig, opts map[string]string) (*Domain, error)
}

var scenarios = map[string]Scenario{}

// RegisterScenario adds s to the registry. Duplicate names panic: the
// registry is populated at init time only.
func RegisterScenario(s Scenario) {
	if _, dup := scenarios[s.Name()]; dup {
		panic("domain: duplicate scenario " + s.Name())
	}
	scenarios[s.Name()] = s
}

// LookupScenario returns the registered scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	s, ok := scenarios[name]
	return s, ok
}

// ScenarioNames lists the registered scenarios in sorted order.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildScenario constructs a domain from a parsed spec. An empty name
// defaults to Sedov.
func BuildScenario(spec ScenarioSpec, cfg BoxConfig) (*Domain, error) {
	name := spec.Name
	if name == "" {
		name = ScenarioSedov
	}
	s, ok := scenarios[name]
	if !ok {
		return nil, &UnknownScenarioError{Name: name, Known: ScenarioNames()}
	}
	return s.Build(cfg, spec.Options)
}

// ValidateScenarioSpec checks that a spec names a registered scenario and
// that its options are acceptable, by building a minimal probe domain.
// Drivers call it once up front so per-rank construction (which has no
// error path) can rely on the spec being buildable.
func ValidateScenarioSpec(spec ScenarioSpec) error {
	_, err := NormalizeScenarioSpec(spec)
	return err
}

// NormalizeScenarioSpec resolves a user-written spec to its canonical
// stamped form — the name with every effective option filled in, exactly
// as Build stamps it on a Domain ("piston" -> "piston:speed=100"). Specs
// must be normalized before comparing a run's scenario against a
// checkpoint tag, which always carries the full option set.
func NormalizeScenarioSpec(spec ScenarioSpec) (ScenarioSpec, error) {
	d, err := BuildScenario(spec, BoxConfig{Nx: 1, Ny: 1, Nz: 1, NumReg: 1})
	if err != nil {
		return ScenarioSpec{}, err
	}
	return d.Scenario, nil
}

// BuildScenarioCube is BuildScenario for the classic cubic single-domain
// problem selected by a Config.
func BuildScenarioCube(spec ScenarioSpec, cfg Config) (*Domain, error) {
	return BuildScenario(spec, BoxConfig{
		Nx: cfg.EdgeElems, Ny: cfg.EdgeElems, Nz: cfg.EdgeElems,
		NumReg: cfg.NumReg, Balance: cfg.Balance, Cost: cfg.Cost,
		DepositEnergy: true,
	})
}

// optFloat reads a float option, enforcing [min, max]. NaN/Inf are
// rejected so fuzzing cannot smuggle a non-finite value into the physics.
func optFloat(opts map[string]string, key string, def, min, max float64) (float64, error) {
	raw, ok := opts[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("scenario: option %s=%q is not a finite number", key, raw)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("scenario: option %s=%v outside [%v, %v]", key, v, min, max)
	}
	return v, nil
}

// optInt reads an integer option, enforcing [min, max].
func optInt(opts map[string]string, key string, def, min, max int) (int, error) {
	raw, ok := opts[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("scenario: option %s=%q is not an integer", key, raw)
	}
	if v < min || v > max {
		return 0, fmt.Errorf("scenario: option %s=%d outside [%d, %d]", key, v, min, max)
	}
	return v, nil
}

// checkKnown rejects option keys the scenario does not document. Keys are
// examined in sorted order so the reported offender is deterministic when
// several are unknown.
func checkKnown(name string, opts map[string]string, docs []OptionDoc) error {
	keys := make([]string, 0, len(opts))
	for k := range opts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		known := false
		for _, d := range docs {
			if d.Key == k {
				known = true
				break
			}
		}
		if !known {
			allowed := make([]string, len(docs))
			for i, d := range docs {
				allowed[i] = d.Key
			}
			return &UnknownOptionError{Scenario: name, Key: k, Allowed: allowed}
		}
	}
	return nil
}

func init() {
	RegisterScenario(sedovScenario{})
	RegisterScenario(pistonScenario{})
	RegisterScenario(multimatScenario{})
}

// --- sedov -----------------------------------------------------------------

// sedovScenario is the classic LULESH 2.0 problem: all energy deposited in
// the origin element of a cold cube, expanding as a spherical blast wave.
type sedovScenario struct{}

func (sedovScenario) Name() string { return ScenarioSedov }
func (sedovScenario) Summary() string {
	return "spherical blast wave: all energy in the origin element of a cold cube"
}
func (sedovScenario) Stresses() string {
	return "the paper's baseline: radially growing active zone, mild region imbalance"
}
func (sedovScenario) Options() []OptionDoc { return nil }

func (s sedovScenario) Build(cfg BoxConfig, opts map[string]string) (*Domain, error) {
	if err := checkKnown(ScenarioSedov, opts, s.Options()); err != nil {
		return nil, err
	}
	if err := validateBox(cfg); err != nil {
		return nil, err
	}
	return NewSedovBox(cfg), nil
}

// --- piston ----------------------------------------------------------------

// pistonScenario drives a rigid wall into cold gas: the x-max face gets a
// constant inward velocity (held by a zero-x-acceleration boundary
// condition, the same mechanism as the symmetry planes), launching a
// planar shock that sweeps toward the x=0 symmetry plane. Unlike Sedov,
// the active zone is a moving slab: elements shock-heat in mesh order, so
// the load front migrates across partitions instead of growing radially.
type pistonScenario struct{}

func (pistonScenario) Name() string { return ScenarioPiston }
func (pistonScenario) Summary() string {
	return "impact driver: velocity BC on the x-max face, planar shock sweeping the mesh"
}
func (pistonScenario) Stresses() string {
	return "a load front migrating across partitions; work concentrated in a moving slab"
}
func (pistonScenario) Options() []OptionDoc {
	return []OptionDoc{
		{Key: "speed", Default: "100", Doc: "piston speed (inward, along -x); shock crosses the default cube near the default stop time"},
	}
}

func (s pistonScenario) Build(cfg BoxConfig, opts map[string]string) (*Domain, error) {
	if err := checkKnown(ScenarioPiston, opts, s.Options()); err != nil {
		return nil, err
	}
	if err := validateBox(cfg); err != nil {
		return nil, err
	}
	speed, err := optFloat(opts, "speed", 100, 1e-3, 1e6)
	if err != nil {
		return nil, err
	}
	d := newBox(cfg)
	m := d.Mesh

	// Re-flag the x-max face from a free surface to a moving rigid wall:
	// the monotonic-Q limiter then mirrors gradients there exactly as it
	// does on the symmetry planes.
	nx := m.Nx
	for e := 0; e < m.NumElem; e++ {
		if e%nx == nx-1 {
			m.ElemBC[e] = m.ElemBC[e]&^mesh.XiPFree | mesh.XiPSymm
		}
	}
	// Pin the x-acceleration of the face nodes (appending them to the
	// SymmX set keeps every backend's BC application identical) and give
	// them the piston's constant inward velocity.
	enx, eny, enz := m.Nx+1, m.Ny+1, m.Nz+1
	for k := 0; k < enz; k++ {
		for j := 0; j < eny; j++ {
			n := int32(k*enx*eny + j*enx + (enx - 1))
			m.SymmX = append(m.SymmX, n)
			m.SymmFlags[n] |= mesh.SymmFlagX
			d.Xd[n] = -speed
		}
	}

	// Conservative initial dt: the piston compresses the face cells by at
	// most 5% of an edge length in the first cycle; the Courant and hydro
	// constraints take over from cycle 1.
	spacing := cfg.Spacing
	if spacing == 0 {
		spacing = 1.125 / float64(cfg.Nx)
	}
	d.Deltatime = 0.05 * spacing / speed

	d.Scenario = ScenarioSpec{Name: ScenarioPiston, Options: map[string]string{
		"speed": strconv.FormatFloat(speed, 'g', -1, 64),
	}}
	return d, nil
}

// --- multimat --------------------------------------------------------------

// multimatScenario is the load-imbalance stress case: a Sedov-style blast
// through a mesh shattered into many small regions under the "extreme"
// cost model, cranking the region count and EOS repetition far past the
// paper's Table I setup. This is the regime where the task scheduler
// does most of the work.
type multimatScenario struct{}

func (multimatScenario) Name() string { return ScenarioMultimat }
func (multimatScenario) Summary() string {
	return "blast through many small materials under the extreme region cost model"
}
func (multimatScenario) Stresses() string {
	return "region-count and cost imbalance far past Table I; scheduler load balancing"
}
func (multimatScenario) Options() []OptionDoc {
	return []OptionDoc{
		{Key: "regions", Default: "64", Doc: "material region count (1..512)"},
		{Key: "cost", Default: "5", Doc: "extra EOS cost multiplier (0..100)"},
		{Key: "balance", Default: "2", Doc: "region size weighting exponent (0..4)"},
	}
}

func (s multimatScenario) Build(cfg BoxConfig, opts map[string]string) (*Domain, error) {
	if err := checkKnown(ScenarioMultimat, opts, s.Options()); err != nil {
		return nil, err
	}
	if err := validateBox(cfg); err != nil {
		return nil, err
	}
	regions, err := optInt(opts, "regions", 64, 1, 512)
	if err != nil {
		return nil, err
	}
	cost, err := optInt(opts, "cost", 5, 0, 100)
	if err != nil {
		return nil, err
	}
	balance, err := optInt(opts, "balance", 2, 0, 4)
	if err != nil {
		return nil, err
	}
	c := cfg
	c.NumReg, c.Cost, c.Balance = regions, cost, balance
	d := newBox(c)
	d.Regions.Model = mesh.CostModelExtreme
	d.initSedovEnergy(c)
	d.Scenario = ScenarioSpec{Name: ScenarioMultimat, Options: map[string]string{
		"regions": strconv.Itoa(regions),
		"cost":    strconv.Itoa(cost),
		"balance": strconv.Itoa(balance),
	}}
	return d, nil
}

// validateBox rejects box dimensions a hostile (fuzzed) spec could use to
// allocate absurd amounts of memory, returning errors where the raw
// constructors would panic.
func validateBox(cfg BoxConfig) error {
	const maxEdge = 1 << 10
	if cfg.Nx < 1 || cfg.Ny < 1 || cfg.Nz < 1 {
		return fmt.Errorf("scenario: box dimensions must be >= 1, got %dx%dx%d",
			cfg.Nx, cfg.Ny, cfg.Nz)
	}
	if cfg.Nx > maxEdge || cfg.Ny > maxEdge || cfg.Nz > maxEdge {
		return fmt.Errorf("scenario: box dimensions must be <= %d, got %dx%dx%d",
			maxEdge, cfg.Nx, cfg.Ny, cfg.Nz)
	}
	const maxRegions = 1 << 16
	if cfg.NumReg < 1 || cfg.NumReg > maxRegions {
		return fmt.Errorf("scenario: NumReg must be in [1, %d], got %d", maxRegions, cfg.NumReg)
	}
	if !regionWeightsFit(cfg.NumReg, cfg.Balance) {
		return fmt.Errorf("scenario: balance %d overflows the weights of %d regions",
			cfg.Balance, cfg.NumReg)
	}
	return nil
}

// regionWeightsFit reports whether the region draw's weight sum, the
// total of (i+1)^balance over the regions, fits in an int — the region
// builder divides by it.
func regionWeightsFit(numReg, balance int) bool {
	if numReg == 1 || balance <= 0 {
		return true // one region draws nothing; a non-positive exponent weighs 1
	}
	if balance > 63 {
		return false
	}
	sum := 0
	for i := 1; i <= numReg; i++ {
		w := 1
		for j := 0; j < balance; j++ {
			if w > math.MaxInt/i {
				return false
			}
			w *= i
		}
		if sum > math.MaxInt-w {
			return false
		}
		sum += w
	}
	return true
}

package respa

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"hfxmd/internal/chem"
	"hfxmd/internal/ckpt"
	"hfxmd/internal/md"
)

// TestGoldenTrajectoryBits pins the exact final state of plain and
// RESPA trajectories on the analytic surface across code versions: the
// parameter fingerprint (so checkpoints written by earlier builds still
// resume) and the sha256 of the canonical state encoding (so every
// position, velocity, force and energy bit is unchanged). No SCF is
// involved, so the values do not depend on GOMAXPROCS. They are
// amd64-only: other architectures may fuse multiply-adds and round
// differently.
func TestGoldenTrajectoryBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden trajectory bits are recorded on amd64, not %s", runtime.GOARCH)
	}
	pot := func(m *chem.Molecule) (float64, error) {
		e, _, err := springEval(fullK, bondR0)(m)
		return e, err
	}
	opts := func(steps, k int, thermostat bool) md.Options {
		return md.Options{Steps: steps, K: k, Dt: 0.25, TemperatureK: 300,
			Thermostat: thermostat, Seed: 11}
	}
	plain := func(thermostat bool) md.Options {
		o := opts(64, 1, thermostat)
		o.FDStep = 1e-5
		return o
	}
	cases := []struct {
		name       string
		full       md.Evaluator
		cheap      md.ForceField
		opts       md.Options
		paramsHash uint64
		sha        string
	}{
		{"plain", md.FDEvaluator(pot, 1e-5, 0), nil, plain(false),
			0x138d9252b7c1a8ee, "faf4388bbd9e41b62c9f22514918234939036f51b39570aa2190af01906c9840"},
		{"plain thermostat", md.FDEvaluator(pot, 1e-5, 0), nil, plain(true),
			0xfb58e831d3174233, "00ffe10b6d297ab9b3652adec412cd1eaba7708310d32d8a2f265e5d0d5d6a27"},
		{"respa k=1", springEval(fullK, bondR0), springField(cheapK, bondR0), opts(64, 1, true),
			0x17ec54652d390c54, "22707b97d9fc3c7dab7815d14d8220912b180b63d2d2e9911dfc5a13883cd59b"},
		{"respa k=4", springEval(fullK, bondR0), springField(cheapK, bondR0), opts(16, 4, true),
			0xb6c8a00884aba549, "2cf83a7d30ca76d75b6906de00e1a6a557cbbdb83e94e6dac29708fc1c1c58d9"},
	}
	for _, c := range cases {
		traj, err := md.Run(respaMol(), c.full, c.cheap, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256(ckpt.EncodeState(traj.Final))
		got := fmt.Sprintf("%016x %s", traj.Final.ParamsHash, hex.EncodeToString(sum[:]))
		if want := fmt.Sprintf("%016x %s", c.paramsHash, c.sha); got != want {
			t.Errorf("%s: final state\n got %s\nwant %s", c.name, got, want)
		}
	}
}

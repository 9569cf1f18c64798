package sim

import (
	"math/rand"
	"testing"
)

// FuzzBoundsSound is the soundness oracle for the analyses: simulation must
// never observe an end-to-end response above a finite analytic bound. The
// seed draws a random system and the mode picks what runs on it: every
// release protocol (DS, PM, MPM, RG, RG rule 1) against the SA/DS and SA/PM
// bounds, or DS under MPCP or DPCP against that protocol's bound. Every
// trace must also validate.
func FuzzBoundsSound(f *testing.F) {
	f.Add(int64(2026), uint8(0))
	f.Add(int64(42), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Add(int64(7), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		switch mode % 3 {
		case 0:
			checkReleaseProtocols(t, randomSystem(rng, 1+rng.Intn(3), 2+rng.Intn(4), 3))
		case 1:
			checkLockingBounds(t, randomGlobalSystem(rng), LockingMPCP)
		default:
			checkLockingBounds(t, randomGlobalSystem(rng), LockingDPCP)
		}
	})
}

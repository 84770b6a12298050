// Package jag is a synthetic stand-in for the JAG semi-analytic ICF
// implosion simulator used to generate the paper's training data (Section
// II-B). The real JAG maps a 5-D input — laser drive strength plus the 3-D
// shape of the imploding shell — to 15 scalar observables and 12 X-ray
// images (3 lines of sight × 4 hyperspectral channels, 64×64 pixels each).
//
// This model reproduces the structure of that map with closed-form physics-
// flavoured surrogates: inputs feed a set of implosion quantities (velocity,
// stagnation radius, ion temperature, areal density), the scalars are smooth
// but strongly non-linear functions of those quantities, and each image is a
// view-projected ellipsoidal hot spot with a limb ring whose channel weights
// follow an exponential energy spectrum. As in the paper, varying the drive
// inputs moves the scalars non-linearly while varying the shape inputs
// mostly changes the images.
//
// The generator is deterministic: the same input always yields the same
// sample, so datasets are reproducible byte-for-byte. Image resolution,
// views and channels are configurable; the paper's geometry is Default64,
// while tests and laptop-scale training use smaller sizes.
package jag

import (
	"fmt"
	"math"
)

// InputDim is the dimensionality of the experiment parameter space.
const InputDim = 5

// ScalarDim is the number of scalar observables per sample.
const ScalarDim = 15

// Config fixes the output geometry of the simulator.
type Config struct {
	ImageSize int // pixels per image side
	Views     int // lines of sight
	Channels  int // hyperspectral channels per view
	// Wiggle in [0,1] adds a high-frequency component to the implosion
	// response. At 0 (the default) the map is smooth; at 1 the observables
	// oscillate across the parameter cube, so a surrogate needs dense
	// sampling to generalize — the regime that made the paper generate 10M
	// simulations and the regime where partitioned K-independent training
	// visibly degrades (Figure 13).
	Wiggle float64
}

// Default64 is the paper's geometry: 3 views × 4 channels at 64×64.
var Default64 = Config{ImageSize: 64, Views: 3, Channels: 4}

// Small16 is a reduced geometry for laptop-scale training runs.
var Small16 = Config{ImageSize: 16, Views: 3, Channels: 4}

// Tiny8 is the geometry used by fast tests: 3 views × 2 channels at 8×8.
var Tiny8 = Config{ImageSize: 8, Views: 3, Channels: 2}

// NumImages returns images per sample (views × channels).
func (c Config) NumImages() int { return c.Views * c.Channels }

// ImageDim returns the flattened length of all images of one sample.
func (c Config) ImageDim() int { return c.NumImages() * c.ImageSize * c.ImageSize }

// OutputDim returns the width of the multimodal output bundle
// (scalars followed by images).
func (c Config) OutputDim() int { return ScalarDim + c.ImageDim() }

// SampleDim returns the full flattened sample width (inputs + outputs).
func (c Config) SampleDim() int { return InputDim + c.OutputDim() }

// Validate reports whether the configuration is usable. An image side needs
// two pixels at least, since its pixel grid spans [-1,1] end to end.
func (c Config) Validate() error {
	if c.ImageSize < 2 || c.Views < 1 || c.Channels < 1 {
		return fmt.Errorf("jag: invalid config %+v", c)
	}
	return nil
}

// Sample is one simulated experiment: the 5-D input and the multimodal
// output bundle. X, Scalars and Images are consecutive views of the one
// SampleDim-long slice Flatten returns, so a write through either shows in
// the other.
type Sample struct {
	X       []float32 // length InputDim, each in [0,1]
	Scalars []float32 // length ScalarDim, each in [0,1]
	Images  []float32 // length ImageDim, each in [0,1], view-major then channel
	flat    []float32 // X ++ Scalars ++ Images
}

// Output returns scalars and images concatenated (scalars first), the layout
// the multimodal autoencoder trains on. It is the tail of Flatten's slice,
// not a copy.
func (s *Sample) Output() []float32 { return s.flat[InputDim:] }

// Flatten returns the sample as inputs ++ scalars ++ images. It is the
// sample's own storage, not a copy: X, Scalars and Images alias it.
func (s *Sample) Flatten() []float32 { return s.flat }

// implosion holds the intermediate physical quantities the observables are
// derived from.
type implosion struct {
	drive, p2, p4, thickness, mix          float64
	velocity, radius, temp, rhoR, pressure float64
	bangTime, burnWidth, yield             float64
}

// physics evaluates the semi-analytic implosion model for input x ∈ [0,1]⁵.
// x[0]: laser drive strength, x[1]: P2 shape asymmetry, x[2]: P4/azimuthal
// shape, x[3]: shell thickness, x[4]: fuel mix fraction. wiggle adds the
// configured high-frequency response.
func physics(x [InputDim]float64, wiggle float64) implosion {
	var im implosion
	im.drive = x[0]
	im.p2 = 2*x[1] - 1 // signed asymmetry in [-1,1]
	im.p4 = 2*x[2] - 1
	im.thickness = 0.5 + x[3] // in [0.5,1.5]
	im.mix = x[4]

	// Implosion velocity rises with drive, falls with shell thickness.
	im.velocity = math.Pow(0.2+im.drive, 1.6) / math.Pow(im.thickness, 0.4)
	// Stagnation radius shrinks with velocity, grows with asymmetry (a
	// distorted shell stagnates early).
	asym2 := im.p2*im.p2 + 0.5*im.p4*im.p4
	im.radius = 0.25 + 0.35/(1+2*im.velocity) + 0.18*asym2
	// Ion temperature from PdV work, degraded by mix and asymmetry.
	im.temp = im.velocity * im.velocity * (1 - 0.6*im.mix) / (1 + 1.5*asym2)
	// Areal density grows with compression (small radius, thick shell).
	im.rhoR = im.thickness * (1 - 0.4*im.mix) / (0.3 + im.radius)
	// Stagnation pressure.
	im.pressure = im.temp * im.rhoR / (0.1 + im.radius)
	// Bang time: later for heavy shells and weak drives.
	im.bangTime = im.thickness / (0.25 + im.velocity)
	// Burn width shrinks as confinement improves.
	im.burnWidth = 0.15 + 0.4/(1+3*im.pressure)
	// Yield: the hallmark strongly non-linear response — exponential
	// sensitivity to temperature with a mix-driven cliff.
	im.yield = im.rhoR * math.Exp(3*(im.temp-0.8)) * math.Exp(-4*im.mix*asym2)
	if wiggle > 0 {
		// High-frequency ripples across the cube: several full periods per
		// axis, so sparse sampling plans alias them.
		r := wiggle
		im.radius *= 1 + 0.22*r*math.Sin(2*math.Pi*(2.3*x[0]+3.1*x[1]))
		im.temp *= 1 + 0.28*r*math.Sin(2*math.Pi*(1.7*x[3]+2.9*x[2]))
		im.yield *= 1 + 0.30*r*math.Sin(2*math.Pi*(3.7*x[0]+1.3*x[4]))
		im.rhoR *= 1 + 0.18*r*math.Sin(2*math.Pi*(2.9*x[2]+2.1*x[3]))
		im.pressure *= 1 + 0.22*r*math.Sin(2*math.Pi*(1.9*x[1]+3.3*x[4]))
	}
	return im
}

// squash maps a non-negative quantity smoothly into [0,1).
func squash(v, scale float64) float32 {
	return float32(v / (v + scale))
}

// Simulate runs the semi-analytic model on x (each coordinate clamped to
// [0,1]) and returns the full multimodal sample.
func Simulate(cfg Config, x [InputDim]float64) *Sample {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		} else if v > 1 {
			x[i] = 1
		}
	}
	im := physics(x, cfg.Wiggle)
	flat := make([]float32, cfg.SampleDim())
	const o = InputDim + ScalarDim
	s := &Sample{X: flat[:InputDim:InputDim], Scalars: flat[InputDim:o:o], Images: flat[o:], flat: flat}
	for i, v := range x {
		s.X[i] = float32(v)
	}
	scalars(im, s.Scalars)
	renderImages(cfg, im, s.Images)
	return s
}

// scalars writes the 15 observable signatures of the implosion state into
// out. Every output is squashed into [0,1] so the surrogate can train
// without per-channel normalization.
func scalars(im implosion, out []float32) {
	out[0] = squash(im.yield, 1.0)                           // neutron yield
	out[1] = squash(im.temp, 0.8)                            // burn-averaged Tion
	out[2] = squash(im.bangTime, 1.2)                        // bang time
	out[3] = squash(im.burnWidth, 0.3)                       // burn width
	out[4] = squash(im.rhoR, 1.5)                            // areal density
	out[5] = squash(im.velocity, 1.0)                        // implosion velocity
	out[6] = squash(im.pressure, 1.0)                        // stagnation pressure
	out[7] = float32(0.5 + 0.5*im.p2)                        // hot-spot P2
	out[8] = float32(0.5 + 0.5*im.p4)                        // hot-spot P4
	out[9] = squash(im.radius, 0.5)                          // hot-spot radius
	out[10] = float32(im.mix)                                // mix fraction
	out[11] = squash(im.yield*im.burnWidth, 0.5)             // burn-integrated emission
	out[12] = squash(im.rhoR*im.rhoR/(0.2+im.temp), 2.0)     // downscatter ratio
	out[13] = squash(im.pressure*im.burnWidth, 0.4)          // confinement product
	out[14] = squash(im.temp/math.Max(0.05, im.radius), 3.0) // emission-weighted gradient
}

// viewAngles spreads the lines of sight over a quarter turn.
func viewAngle(view, views int) float64 {
	if views <= 1 {
		return 0
	}
	return float64(view) * math.Pi / 2 / float64(views)
}

// renderImages rasterizes one hot-spot image per (view, channel) into dst,
// which must have length cfg.ImageDim(). Layout: view-major, then channel,
// then rows. A view's channels differ only in a scalar weight, so each
// pixel's emission profile is computed once and written to every channel.
func renderImages(cfg Config, im implosion, dst []float32) {
	n := cfg.ImageSize
	px := n * n
	// Hyperspectral weight: channel c integrates photon energies
	// ∝ exp(-E_c/T); hotter implosions light up harder channels.
	w := make([]float64, cfg.Channels)
	for c := range w {
		ec := 0.4 + 0.9*float64(c)
		w[c] = math.Exp(-ec / math.Max(0.08, im.temp))
	}
	for v := 0; v < cfg.Views; v++ {
		theta := viewAngle(v, cfg.Views)
		cosT, sinT := math.Cos(theta), math.Sin(theta)
		// The projected hot spot is an ellipse whose axes follow the P2/P4
		// distortion as seen from this view.
		a := im.radius * (1 + 0.55*im.p2*cosT + 0.2*im.p4)
		b := im.radius * (1 - 0.55*im.p2*cosT + 0.2*im.p4*sinT)
		if a < 0.05 {
			a = 0.05
		}
		if b < 0.05 {
			b = 0.05
		}
		ringR := im.radius * (1.6 + 0.3*im.p4*sinT)
		ringW := 0.06 + 0.1*im.burnWidth
		ringAmp := 0.35 * im.rhoR
		base := v * cfg.Channels * px
		for iy := 0; iy < n; iy++ {
			y := (float64(iy)/float64(n-1))*2 - 1
			for ix := 0; ix < n; ix++ {
				xx := (float64(ix)/float64(n-1))*2 - 1
				// Rotate into the view frame.
				xr := xx*cosT + y*sinT
				yr := -xx*sinT + y*cosT
				core := math.Exp(-math.Pow(xr*xr/(a*a)+yr*yr/(b*b), 1.3))
				r := math.Sqrt(xr*xr + yr*yr)
				dr := (r - ringR) / ringW
				ring := ringAmp * math.Exp(-dr*dr)
				shape := core + ring
				for c, wc := range w {
					dst[base+c*px+iy*n+ix] = float32(min(wc*shape, 1))
				}
			}
		}
	}
}

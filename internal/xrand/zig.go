package xrand

import "math"

// Ziggurat sampler for the unit exponential (Marsaglia & Tsang, "The
// Ziggurat Method for Generating Random Variables", 2000), widened to the
// full 64-bit draw. The density e^{-x} is covered by 256 horizontal
// layers of equal area zigExpV: layer 0 is the base strip plus the tail
// beyond zigExpR, layers 1..255 are rectangles [0, x_i] whose right edges
// shrink as the layers stack up. One raw draw supplies both the layer
// index (low 8 bits) and the horizontal position (the full value); the
// draw is accepted immediately when the position lands left of the next
// layer's edge, which happens ~97.8% of the time. Only the rare edge and
// tail cases pay for an exp/log.
const (
	zigExpR = 7.69711747013104972      // start of the exponential tail
	zigExpV = 0.0039496598225815571993 // area of each layer
)

var (
	zigExpK [256]uint64  // acceptance thresholds on the raw 64-bit draw
	zigExpW [256]float64 // x = draw * zigExpW[i] positions within layer i
	zigExpF [256]float64 // f(x_i) = exp(-x_i)
)

func init() {
	const m = 1 << 63 // scale applied twice: draws span 2^64
	de, te := zigExpR, zigExpR
	q := zigExpV / math.Exp(-de)
	zigExpK[0] = uint64((de / q) * m * 2)
	zigExpK[1] = 0
	zigExpW[0] = q / m / 2
	zigExpW[255] = de / m / 2
	zigExpF[0] = 1
	zigExpF[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(zigExpV/de + math.Exp(-de))
		zigExpK[i+1] = uint64((de / te) * m * 2)
		te = de
		zigExpF[i] = math.Exp(-de)
		zigExpW[i] = de / m / 2
	}
}

// expZigFrom finishes the ziggurat loop for a first draw j that missed
// the fast test Exp and FillTicks make themselves: the wedge, the tail,
// and any redraw. It is out of line so that their common case stays a
// draw, a table test and a multiply, with FillTicks's generator state
// left in registers.
func (r *RNG) expZigFrom(j uint64) float64 {
	for {
		i := j & 255
		x := u64ToFloat(j) * zigExpW[i]
		if j < zigExpK[i] {
			return x
		}
		if i == 0 {
			// Tail: beyond zigExpR the residual density is again
			// exponential, shifted.
			return zigExpR - math.Log(r.Float64Open())
		}
		// Wedge between the rectangle covered by the layer above and the
		// curve: exact accept/reject against the density.
		if zigExpF[i]+r.Float64()*(zigExpF[i-1]-zigExpF[i]) < math.Exp(-x) {
			return x
		}
		j = r.Uint64()
	}
}

// u64ToFloat is float64(j) without a branch: Go converts a uint64 with
// a sign test that goes each way half the time on a uniform draw. Both
// halves convert exactly, and the sum rounds once, as float64(j) does.
func u64ToFloat(j uint64) float64 {
	return float64(int64(j>>32))*0x1p32 + float64(int64(j&0xffffffff))
}

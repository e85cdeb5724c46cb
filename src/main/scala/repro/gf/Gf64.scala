package repro.gf

/** Arithmetic over the finite field GF(2^64).
  *
  * Elements are 64-bit machine words interpreted as polynomials over GF(2);
  * multiplication is carry-less multiplication reduced modulo the irreducible
  * polynomial x^64 + x^4 + x^3 + x + 1 — the same polynomial (`0x1b`) as the
  * paper's C user-defined function `axplusb` (Fig. 7), of which [[axb]] is a
  * line-for-line port.
  *
  * The Randomised Contraction paper uses the affine map h(x) = A*x + B over
  * this field (A != 0) as a cheap random bijection on 64-bit vertex IDs: the
  * map is invertible because every non-zero A has a multiplicative inverse.
  * Comparisons of h-values are done in plain signed-integer order, exactly as
  * the paper stores the field element back into an int64 column.
  */
object Gf64 {

  /** The low bits of the irreducible polynomial x^64 + x^4 + x^3 + x + 1. */
  final val IrrPoly: Long = 0x1bL

  /** Multiplicative identity. */
  final val One: Long = 1L

  /** A*x + B over GF(2^64). Direct port of the paper's `axplusb` C UDF. */
  def axb(a0: Long, x0: Long, b: Long): Long = {
    var a = a0
    var x = x0
    var r = 0L
    while (x != 0L) {
      if ((x & 1L) != 0L) r ^= a
      a = if ((a & Long.MinValue) != 0L) (a << 1) ^ IrrPoly else a << 1
      x >>>= 1
    }
    r ^ b
  }

  /** x ↦ a*x + b for one fixed (a, b): a round's h as a value a plan can hold. */
  final case class Affine(a: Long, b: Long) {
    def apply(x: Long): Long = axb(a, x, b)
  }

  /** Field multiplication. */
  def mul(a: Long, x: Long): Long = axb(a, x, 0L)

  /** Field addition (= subtraction = XOR). */
  def add(a: Long, b: Long): Long = a ^ b

  /** a^e by square-and-multiply (exponent treated as unsigned). */
  def pow(a: Long, e: Long): Long = {
    var base = a
    var exp  = e
    var acc  = One
    while (exp != 0L) {
      if ((exp & 1L) != 0L) acc = mul(acc, base)
      base = mul(base, base)
      exp >>>= 1
    }
    acc
  }

  /** Multiplicative inverse of a non-zero element, via Fermat: a^(2^64 - 2).
    *
    * The multiplicative group has order 2^64 - 1, so a^(2^64 - 2) = a^(-1).
    */
  def inv(a: Long): Long = {
    require(a != 0L, "0 has no multiplicative inverse in GF(2^64)")
    // 2^64 - 2 as an unsigned 64-bit value is 0xFFFF...FE == -2L.
    pow(a, -2L)
  }

  /** Inverse of the affine map y = A*x + B: x = A^(-1) * (y - B). */
  def invAxb(a: Long, y: Long, b: Long): Long = mul(inv(a), y ^ b)
}

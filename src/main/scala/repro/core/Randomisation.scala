package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.gf.{Gf64, ModP}
import repro.graph.SpaceTracker
import scala.util.Random

/** Per-round random bijection h_i used to order vertices (§V-C).
  *
  * The paper's three randomisation methods:
  *
  *  - finite fields (GF(2^64) or GF(p)): h(x) = A·x + B, affine — these also
  *    support the Fast variant's back-to-front (A,B) accumulation (Fig. 4);
  *  - encryption: h(x) = E_k(x) for a fresh key per round (bijective, not
  *    affine, so only the Fig. 3 variant applies);
  *  - random reals: a per-vertex uniform random table with argmin selection
  *    (no relabelling; representatives stay original vertex IDs).
  */
sealed trait Randomisation {
  def name: String
  /** Draw the per-round randomness. */
  def nextRound(rng: Random): RoundHash
}

/** A method whose rounds compose in closed form (Fig. 4's accumulator). */
sealed trait AffineRandomisation extends Randomisation {
  def nextRound(rng: Random): AffineRoundHash
}

/** The drawn randomness of one round: how it picks representatives and how
  * it relabels a vertex that has no representative this round.
  */
sealed trait RoundHash {
  /** Materialise the representative table R_i(v, r) of the edge table `e`
    * under `name`.
    */
  def representatives(e: DataFrame, tracker: SpaceTracker, name: String): (DataFrame, Long)
  /** The label Fig. 3's composition gives a vertex that went isolated in an
    * earlier round (and so has no row in R_i).
    */
  def relabel(r: Column): Column
}

/** A round whose h_i is a Column transform. The representative IS the
  * h-value, `select v, least(h(v), min(h(w))) from E group by v` — the
  * paper's performance optimisation that relabels vertices each round (valid
  * because h_i is a bijection).
  */
sealed trait ColumnHash extends RoundHash {
  /** h_i applied to a vertex-ID column. */
  def hash(x: Column): Column

  def representatives(e: DataFrame, tracker: SpaceTracker, name: String): (DataFrame, Long) =
    tracker.materialize(name, e.groupBy(col("v")).agg(least(hash(col("v")), min(hash(col("w")))).as("r")))

  def relabel(r: Column): Column = hash(r)
}

/** Affine rounds compose in closed form: needed by the Fast variant's
  * back-to-front accumulator (Fig. 4: `(A,B) ← (A·α, A·β + B)`).
  */
sealed trait AffineRoundHash extends ColumnHash {
  def a: Long
  def b: Long
  /** `this ∘ inner` (apply inner first, then this). */
  def compose(inner: AffineRoundHash): AffineRoundHash
}

/** Finite fields method over GF(2^64) — the method used in all the paper's
  * experiments, via the `gf64_axb` engine function (paper's C UDF `axplusb`).
  */
case object FiniteField64 extends AffineRandomisation {
  val name = "gf64"
  final case class Round(a: Long, b: Long) extends AffineRoundHash {
    def hash(x: Column): Column = call_function("gf64_axb", lit(a), x, lit(b))
    /** Fig. 4 accumulator step: (A,B) ← (A·α, A·β + B) over GF(2^64). */
    def compose(inner: AffineRoundHash): AffineRoundHash =
      Round(Gf64.axb(a, inner.a, 0L), Gf64.axb(a, inner.b, b))
  }
  def nextRound(rng: Random): Round = {
    var a = 0L
    while (a == 0L) a = rng.nextLong()
    Round(a, rng.nextLong())
  }
}

/** Finite fields method over GF(p), p = 2^31 − 1 — the paper's "SQL-only"
  * alternative (plain modular arithmetic, no UDF). Vertex IDs must lie in
  * [0, p): outside it a·x can overflow, or x hashes like x ± p and two
  * components could merge, so such an ID fails the query, naming the ID.
  */
case object FinitePrimeField extends AffineRandomisation {
  val name = "modp"
  final case class Round(a: Long, b: Long) extends AffineRoundHash {
    def hash(x: Column): Column = {
      val id = x.cast("long")
      val inField = when(id < 0L || id >= ModP.P, raise_error(concat(lit("vertex ID "),
        id.cast("string"), lit(" outside [0, 2^31 - 1): the GF(p) method needs small IDs")))).otherwise(id)
      pmod(lit(a) * inField + lit(b), lit(ModP.P))
    }
    def compose(inner: AffineRoundHash): AffineRoundHash =
      Round(a * inner.a % ModP.P, (a * inner.b + b) % ModP.P)
  }
  def nextRound(rng: Random): Round = {
    val a = 1L + math.floorMod(rng.nextLong(), ModP.P - 1) // in [1, p)
    val b = math.floorMod(rng.nextLong(), ModP.P)          // in [0, p)
    Round(a, b)
  }
}

/** Encryption method (§V-C): pseudo-random bijection via a 64-bit block
  * cipher with a fresh random key each round. XTEA substitutes for the
  * paper's Blowfish (DESIGN.md §4). Not affine → Deterministic variant only.
  */
case object Encryption extends Randomisation {
  val name = "xtea"
  final case class Round(k0: Int, k1: Int, k2: Int, k3: Int) extends ColumnHash {
    def hash(x: Column): Column = call_function("xtea_enc", x, lit(k0), lit(k1), lit(k2), lit(k3))
  }
  def nextRound(rng: Random): Round = Round(rng.nextInt(), rng.nextInt(), rng.nextInt(), rng.nextInt())
}

/** Random reals method (§V-C): a fresh uniform random number per vertex per
  * round, representatives chosen by argmin so vertex IDs are never relabelled.
  * The random table must be joined to the edges — the communication cost the
  * finite-fields method exists to avoid.
  */
case object RandomReals extends Randomisation {
  val name = "randreal"
  final case class Round(seed: Long) extends RoundHash {
    /** Materialise the random table H(v, h) under "H", then take each
      * vertex's argmin of h over its closed neighbourhood.
      */
    def representatives(e: DataFrame, tracker: SpaceTracker, name: String): (DataFrame, Long) = {
      val verts     = e.select(col("v")).distinct()
      val (hTab, _) = tracker.materialize("H", verts.select(col("v"), rand(seed).as("h")))
      val nbrs = e.join(hTab.select(col("v").as("hv"), col("h")), col("w") === col("hv"))
        .select(col("v"), col("w"), col("h"))
      val self = hTab.select(col("v"), col("v").as("w"), col("h"))
      val r    = nbrs.union(self).groupBy(col("v")).agg(min_by(col("w"), col("h")).as("r"))
      val out  = tracker.materialize(name, r)
      tracker.drop("H")
      out
    }
    /** Argmin keeps original IDs: no relabelling. */
    def relabel(r: Column): Column = r
  }
  def nextRound(rng: Random): Round = Round(rng.nextLong())
}

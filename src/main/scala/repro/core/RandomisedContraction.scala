package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.gf.GfFunctions
import repro.graph.{GraphOps, SpaceTracker}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Implementation variants of Randomised Contraction (§V-D). */
sealed trait Variant
object Variant {
  /** Fig. 3: one running composition table L — deterministic linear space. */
  case object Deterministic extends Variant
  /** Fig. 4: stack of R_i tables joined back-to-front small-to-large —
    * faster, linear space in expectation. Requires an affine method.
    */
  case object Fast extends Variant
}

/** The paper's contribution: Randomised Contraction (§V).
  *
  * Per round i: draw a fresh random bijection h_i, map every vertex to the
  * representative `r_i(v) = min_{w ∈ N[v]} h_i(w)` (one aggregate query),
  * contract the edge table by replacing endpoints with representatives and
  * dropping duplicates and loops (one self-join query), and fold r_i into the
  * running composition. Terminates when the edge table is empty; expected
  * O(log |V|) rounds for any input (Theorem 1: shrink factor γ ≤ 3/4).
  *
  * Each materialised DataFrame corresponds 1:1 to a `CREATE TABLE` in the
  * paper's SQL scripts (Figs. 3, 4, 8) and is registered with the
  * [[SpaceTracker]] so Tables IV/V space metrics can be reproduced.
  */
final case class RandomisedContraction(method: Randomisation = FiniteField64,
                                       variant: Variant = Variant.Fast) extends CcAlgorithm {

  override def name: String = {
    val base = variant match {
      case Variant.Fast          => "RC"
      case Variant.Deterministic => "RC-det"
    }
    if (method == FiniteField64) base else s"$base-${method.name}"
  }

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val spark = edges.sparkSession
    GfFunctions.ensureRegistered(spark)
    val rng = new Random(seed)

    val (e0, e0Rows) = tracker.materialize("E", GraphOps.undirect(GraphOps.asEdges(edges)))
    if (e0Rows == 0L) return CcRun(emptyLabels(spark), 0, tracker)

    (variant, method) match {
      case (Variant.Deterministic, _)             => runDeterministic(e0, tracker, rng)
      case (Variant.Fast, m: AffineRandomisation) => runFast(m, e0, tracker, rng)
      case (Variant.Fast, _) => throw new IllegalArgumentException(
        s"Fast variant (Fig. 4) needs an affine method for the (A,B) accumulator; ${method.name} is not")
    }
  }

  private def emptyLabels(spark: SparkSession): DataFrame =
    spark.range(0).select(col("id").as("v"), col("id").as("r"))

  /** Contraction: map both endpoints through R, drop loops and duplicates.
    * E stays bidirectional because the input was (both orientations map).
    */
  private def contract(e: DataFrame, r: DataFrame): DataFrame = {
    val rv = r.select(col("v").as("rv_v"), col("r").as("rv_r"))
    val rw = r.select(col("v").as("rw_v"), col("r").as("rw_r"))
    e.join(rv, col("v") === col("rv_v"))
      .join(rw, col("w") === col("rw_v"))
      .where(col("rv_r") =!= col("rw_r"))
      .select(col("rv_r").as("v"), col("rw_r").as("w"))
      .distinct()
  }

  /** The forward loop Figs. 3 and 4 share. Per round: draw h_i, build R_i
    * under `rName(i)`, contract E (replacing E_{i-1}), record |E_i|, then
    * hand R_i and h_i to `fold`. Returns the number of rounds.
    */
  private def contractAll[H <: RoundHash](e0: DataFrame, tracker: SpaceTracker, draw: () => H,
                                          rName: Int => String)
                                         (fold: (Int, DataFrame, H) => Unit): Int = {
    var e = e0
    loop(10000) { i =>
      val h          = draw()
      val (r, _)     = h.representatives(e, tracker, rName(i))
      val (t, tRows) = tracker.materialize("E", contract(e, r))
      tracker.recordRound(tRows)
      e = t
      fold(i, r, h)
      tRows == 0L
    }
  }

  /** Fig. 3: deterministic-space variant. R_1 becomes L without a rewrite;
    * every later R_i is folded into L by an inner join: matched rows take
    * the new representative, unmatched rows (vertices that went isolated in
    * an earlier round) are only relabelled by h_i.
    */
  private def runDeterministic(e0: DataFrame, tracker: SpaceTracker, rng: Random): CcRun = {
    var l: DataFrame = null
    val rounds = contractAll(e0, tracker, () => method.nextRound(rng), i => if (i == 1) "L" else "R") {
      (i, r, h) =>
        if (i == 1) l = r
        else {
          val rr = r.select(col("v").as("c_v"), col("r").as("c_r"))
          l = tracker.materialize("L", l.join(rr, col("r") === col("c_v"), "left_outer")
            .select(col("v"), coalesce(col("c_r"), h.relabel(col("r"))).as("r")))._1
          tracker.drop("R")
        }
    }
    CcRun(l.select(col("v"), col("r")), rounds, tracker)
  }

  /** Fig. 4: fast variant — keep every R_i, then compose back-to-front,
    * R_i := R_i ⟕ R_{i+1}, so each join is small-to-large. Unmatched rows get
    * the accumulated relabelling h_k ∘ … ∘ h_{i+1}, an affine map in closed
    * form.
    */
  private def runFast(m: AffineRandomisation, e0: DataFrame, tracker: SpaceTracker,
                      rng: Random): CcRun = {
    val rs     = ArrayBuffer.empty[(DataFrame, AffineRoundHash)]
    val rounds = contractAll(e0, tracker, () => m.nextRound(rng), i => s"R$i") {
      (_, r, h) => rs += ((r, h))
    }
    val (labels, _) = (1 until rounds).foldRight(rs.last) { case (i, (next, acc)) =>
      val (r, h) = rs(i - 1)
      val nr     = next.select(col("v").as("c_v"), col("r").as("c_r"))
      val joined = r.join(nr, col("r") === col("c_v"), "left_outer")
        .select(col("v"), coalesce(col("c_r"), acc.hash(col("r"))).as("r"))
      val (c, _) = tracker.materialize(s"R$i", joined)
      tracker.drop(s"R${i + 1}")
      (c, acc.compose(h))
    }
    CcRun(labels.select(col("v"), col("r")), rounds, tracker)
  }
}

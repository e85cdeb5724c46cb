package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.SpaceTracker

/** One finished connected-components run.
  *
  * @param labels  DataFrame (v: long, r: long) — one row per vertex of the
  *                input, two vertices share `r` iff they are connected (§III).
  * @param rounds  number of contraction / message rounds executed.
  * @param tracker space accounting for Tables IV and V.
  */
final case class CcRun(labels: DataFrame, rounds: Int, tracker: SpaceTracker)

/** Common surface for Randomised Contraction and all baseline algorithms, so
  * the bench harness (Tables III–V) can sweep algorithms × datasets.
  */
trait CcAlgorithm {
  /** Short display name used in the tables (RC, HM, TP, CR, ...). */
  def name: String

  /** Compute connected components of an undirected edge table (v, w).
    *
    * Loop edges mark isolated vertices; duplicates and both orientations are
    * tolerated. Must label every vertex ID occurring in `edges`.
    *
    * @param tracker space accounting; throws [[repro.graph.BlowUpException]]
    *                if the configured cap is exceeded (harness renders "—").
    * @param seed    randomness seed — runs are deterministic given the seed.
    */
  def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun

  /** Convenience overload with a fresh unbounded tracker. */
  final def run(edges: DataFrame, seed: Long = 42L): CcRun =
    run(edges, new SpaceTracker(algoName = name), seed)

  /** The round loop every implementation shares: runs `step(1)`, `step(2)`,
    * … until a step returns true (converged) and returns the number of steps
    * run. `maxRounds` is a safety valve, not a tuning knob: exceeding it
    * fails the run.
    */
  protected final def loop(maxRounds: Int)(step: Int => Boolean): Int = {
    var round = 0
    var done  = false
    while (!done) {
      round += 1
      require(round <= maxRounds, s"$name did not converge in $maxRounds rounds")
      done = step(round)
    }
    round
  }
}

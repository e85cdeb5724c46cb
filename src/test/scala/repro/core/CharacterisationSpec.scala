package repro.core

import repro.ReproSpec
import repro.baselines.{BfsMinLabel, Cracker, GraphSquaring, HashToMin, TwoPhase}
import repro.testutil.Graphs

/** Pins the round count and the space accounting of all eight
  * implementations on one fixed graph and seed.
  *
  * A refactoring of how the algorithms materialise, drop or loop must leave
  * every figure here unchanged: they feed Tables I, IV and V.
  */
class CharacterisationSpec extends ReproSpec {

  /** G(60, 0.05) plus a sequentially numbered 128-vertex path (IDs from 1000). */
  private val edges: Seq[(Long, Long)] =
    Graphs.randomGnp(60, 0.05, 7) ++ (1000L until 1127L).map(i => (i, i + 1))

  private val Seed = 11L

  /** (rounds, roundEdgeRows, maxLiveRows, totalWrittenRows) per algorithm. */
  private val pinned: Seq[(CcAlgorithm, (Int, Seq[Long], Long, Long))] = Seq(
    RandomisedContraction() ->
      ((7, Seq(214L, 112L, 36L, 18L, 10L, 2L, 0L), 826L, 1536L)),
    RandomisedContraction(FiniteField64, Variant.Deterministic) ->
      ((7, Seq(214L, 112L, 36L, 18L, 10L, 2L, 0L), 826L, 2305L)),
    RcSparkSql ->
      ((7, Seq(232L, 108L, 42L, 22L, 8L, 2L, 0L), 844L, 1586L)),
    HashToMin ->
      ((9, Seq(937L, 1471L, 2361L, 3954L, 6882L, 10450L, 8370L, 369L, 369L), 18820L, 35765L)),
    TwoPhase ->
      ((16, Seq(199L, 187L, 181L, 181L, 181L, 181L, 181L, 181L), 611L, 3168L)),
    Cracker ->
      ((7, Seq(646L, 1002L, 1848L, 3256L, 4736L, 2336L, 0L), 11167L, 26720L)),
    BfsMinLabel ->
      ((128, Seq(), 790L, 24666L)),
    GraphSquaring ->
      ((8, Seq(518L, 1510L, 2473L, 3397L, 5053L, 7597L, 9613L, 9613L), 19226L, 39981L)),
  )

  for ((algo, want) <- pinned) {
    test(s"${algo.name} rounds and space accounting are pinned") {
      val run = algo.run(Graphs.toDf(spark, edges), seed = Seed)
      Graphs.assertPartition(run.labels, edges)
      val t   = run.tracker
      val got = (run.rounds, t.roundEdgeRows, t.maxLiveRows, t.totalWrittenRows)
      assert(got == want, s"${algo.name}: got $got")
    }
  }
}

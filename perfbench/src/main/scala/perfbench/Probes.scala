package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.gf.{Gf64, GfFunctions}
import repro.graph.SpaceTracker

/** Single-layer measurements that need no CC run: the GF(2^64) kernel, the
  * `gf64_axb` expression inside a plan, and one materialisation.
  */
object Probes {

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def secondsOf(body: => Any): Double = {
    val t = System.nanoTime()
    body
    (System.nanoTime() - t) / 1e9
  }

  /** ns per `Gf64.axb` call on random full 64-bit operands, one thread.
    * The first two passes warm the JIT and are not reported.
    */
  def gfAxbNs(seed: Long): Seq[Double] = {
    val n   = 1 << 18
    val rnd = new java.util.SplittableRandom(seed)
    val a, x, b = Array.fill(n)(rnd.nextLong())
    var sink = 0L
    val passes = (1 to 9).map { _ =>
      secondsOf {
        var i = 0
        while (i < n) { sink ^= Gf64.axb(a(i), x(i), b(i)); i += 1 }
      } * 1e9 / n
    }
    if (sink == 0x5EEDL) println() // keeps the loop's result observable
    passes.drop(2)
  }

  /** ms per 10^6 rows of counting the rows of `spark.range(rows)` where
    * f(x) = 0, with f = `gf64_axb` (a random full 64-bit `a`) or, as the
    * floor, `xxhash64`. x spreads `id` over all 64 bits with shifts and a
    * random mask (a multiplication would overflow under ANSI arithmetic).
    */
  def exprMsPerMrow(spark: SparkSession, gf: Boolean, rows: Long, seed: Long): Seq[Double] = {
    GfFunctions.ensureRegistered(spark)
    val rnd = new java.util.SplittableRandom(seed)
    val id  = col("id")
    val x   = shiftleft(id, 43).bitwiseXOR(shiftleft(id, 21)).bitwiseXOR(id)
                .bitwiseXOR(lit(rnd.nextLong() | Long.MinValue))
    val f   = if (gf) call_function("gf64_axb", lit(rnd.nextLong() | 1L), x, lit(rnd.nextLong()))
              else xxhash64(x)
    val plan = spark.range(rows).where(f === lit(0L))
    (1 to 4).map(_ => secondsOf(plan.count()) * 1e3 / (rows / 1e6)).drop(1)
  }

  /** A `rows`-row edge table with distinct (v, w) pairs. */
  def edgeTable(spark: SparkSession, rows: Long): DataFrame =
    spark.range(rows).select(col("id").as("v"), (col("id") + 1).as("w"))

  /** Seconds per `SpaceTracker.materialize` of a `rows`-row edge table,
    * after one unreported call; `cleanup` runs after every call.
    */
  def materializeS(spark: SparkSession, rows: Long, reps: Int, cleanup: () => Unit): Seq[Double] = {
    val tracker = new SpaceTracker()
    val df = edgeTable(spark, rows)
    (0 to reps).map { i =>
      val s = secondsOf(tracker.materialize(s"P$i", df))
      tracker.drop(s"P$i")
      cleanup()
      s
    }.drop(1)
  }
}

package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.gf.GfFunctions
import repro.graph.{GraphOps, SpaceTracker}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Randomised Contraction executed as literal SQL text (Appendix A, Fig. 8).
  *
  * The paper's experiment driver is a Python script that issues SQL strings
  * against the database; §VII-C then runs the *same SQL* in Spark SQL to
  * compare engines. This class is that Spark-SQL incarnation: the fast
  * variant's queries are submitted verbatim via `spark.sql` over temp views,
  * with `gf64_axb` playing the paper's `axplusb` UDF. Semantically identical
  * to [[RandomisedContraction]] (Fast / FiniteField64); it exists so the
  * §VII-C engine comparison has a same-SQL-different-API pair.
  */
case object RcSparkSql extends CcAlgorithm {
  override val name = "RC-sql"

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val spark = edges.sparkSession
    GfFunctions.ensureRegistered(spark)
    val rng = new Random(seed)
    val tag = s"rc_${math.abs(rng.nextLong()).toString.take(8)}" // unique view namespace

    /** `create table view as sql`, replacing a live table of that name. */
    def mat(view: String, sql: String): Long = {
      val (df, rows) = tracker.materialize(view, spark.sql(sql))
      df.createOrReplaceTempView(view)
      rows
    }

    GraphOps.asEdges(edges).createOrReplaceTempView(s"${tag}_in")
    val e0Rows = mat(s"${tag}_ccgraph",
      s"select v, w from ${tag}_in union all select w as v, v as w from ${tag}_in")
    if (e0Rows == 0L)
      return CcRun(spark.range(0).select(col("id").as("v"), col("id").as("r")), 0, tracker)

    val hs = ArrayBuffer.empty[FiniteField64.Round]
    val rounds = loop(10000) { i =>
      val h = FiniteField64.nextRound(rng)
      hs += h
      mat(s"${tag}_ccreps$i",
        s"""select v, least(gf64_axb(${h.a}, v, ${h.b}), min(gf64_axb(${h.a}, w, ${h.b}))) as rep
           |from ${tag}_ccgraph group by v""".stripMargin)
      val rows = mat(s"${tag}_ccgraph",
        s"""select distinct r1.rep as v, r2.rep as w
           |from ${tag}_ccgraph g, ${tag}_ccreps$i r1, ${tag}_ccreps$i r2
           |where g.v = r1.v and g.w = r2.v and r1.rep != r2.rep""".stripMargin)
      tracker.recordRound(rows)
      rows == 0L
    }

    // Back-to-front composition with the (A,B) accumulator (Fig. 8, 2nd loop).
    (1 until rounds).foldRight(hs.last: AffineRoundHash) { (i, acc) =>
      mat(s"${tag}_ccreps$i",
        s"""select r1.v as v, coalesce(r2.rep, gf64_axb(${acc.a}, r1.rep, ${acc.b})) as rep
           |from ${tag}_ccreps$i r1 left outer join ${tag}_ccreps${i + 1} r2 on r1.rep = r2.v""".stripMargin)
      tracker.drop(s"${tag}_ccreps${i + 1}")
      acc.compose(hs(i - 1))
    }
    CcRun(spark.sql(s"select v, rep as r from ${tag}_ccreps1"), rounds, tracker)
  }
}

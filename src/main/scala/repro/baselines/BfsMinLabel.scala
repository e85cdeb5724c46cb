package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{CcAlgorithm, CcRun}
import repro.graph.{GraphOps, SpaceTracker}

/** The "Breadth First Search" strategy of §IV — iterative minimum-label
  * propagation (what Apache MADlib's in-database CC does). Each round every
  * vertex takes the minimum representative over its closed neighbourhood;
  * after n rounds a vertex knows the minimum ID within distance n, so the
  * round count equals the graph diameter: n − 1 on a sequentially numbered
  * path, which is why §IV rules it out for Big Data. Included as the naive
  * comparator and for the worst-case demonstration tests.
  */
case object BfsMinLabel extends CcAlgorithm {
  override val name = "BFS"

  override def run(edges: DataFrame, tracker: SpaceTracker, seed: Long): CcRun = {
    val raw    = GraphOps.asEdges(edges)
    val (b, _) = tracker.materialize("B", GraphOps.undirect(GraphOps.canonical(raw)))
    var (l, lRows) = tracker.materialize("L", GraphOps.vertices(raw).select(col("v"), col("v").as("r")))
    val rounds = if (lRows == 0L) 0 else loop(2000000) { _ =>
      // Min of neighbours' current representatives.
      val nbrMin = b.join(l.select(col("v").as("lw"), col("r")), col("w") === col("lw"))
        .groupBy(col("v")).agg(min(col("r")).as("nr"))
      val improved = l.join(nbrMin, Seq("v"), "left_outer")
        .select(col("v"), least(col("r"), coalesce(col("nr"), col("r"))).as("r"),
                (col("nr").isNotNull && col("nr") < col("r")).cast("int").as("changed"))
      val (nl, _) = tracker.materialize("L", improved)
      l = nl.select(col("v"), col("r"))
      nl.agg(sum(col("changed"))).head().getLong(0) == 0L
    }
    CcRun(l, rounds, tracker)
  }
}

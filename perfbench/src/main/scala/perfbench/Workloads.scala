package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.TwoPhase
import repro.core.{CcAlgorithm, RandomisedContraction}
import repro.datasets.Generators
import repro.imaging.ImageGraph

/** One benchmark input family and the algorithm run on it.
  *
  * `generate` receives the workload seed; sizes are fixed here and read no
  * environment variable.
  */
final case class Workload(name: String, algo: CcAlgorithm,
                          generate: (SparkSession, Long) => DataFrame)

object Workloads {

  /** Generator seed for a workload seed: `--seed 1` gives the generator's
    * default seed, so it reproduces the sizes recorded in BENCHMARK.json.
    */
  def generatorSeed(default: Long, seed: Long): Long = default ^ ((seed - 1) * 0x9E3779B97F4A7C15L)

  val all: Seq[Workload] = Seq(
    // Path100M analogue: 2^16 vertices, about 16 rounds of mostly tiny
    // tables, so the fixed cost of each query and materialisation dominates.
    Workload("path-rc", RandomisedContraction(),
      (sp, _) => Generators.path(sp, 1L << 16)),
    // Candels20 analogue under Two-Phase: same materialisation and shuffle
    // layers, no hashing, deterministic given the input.
    Workload("candels-tp", TwoPhase,
      (sp, s) => ImageGraph.video3d(sp, 64, 36, frames = 12, threshold = 20,
                                    seed = generatorSeed(0xCA4DE15L, s))),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

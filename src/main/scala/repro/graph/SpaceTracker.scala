package repro.graph

import org.apache.spark.sql.DataFrame
import scala.collection.mutable

/** Thrown when an algorithm's live intermediate state exceeds the harness cap
  * — the analogue of the paper's "did not finish with the available
  * resources" entries ("—" in Tables III–V).
  */
final case class BlowUpException(algo: String, liveRows: Long, capRows: Long)
    extends RuntimeException(s"$algo exceeded space cap: $liveRows live rows > cap $capRows")

/** Accounting for the paper's space metrics (Tables IV and V).
  *
  * Every intermediate an algorithm materialises corresponds to a
  * `CREATE TABLE` in the paper's SQL scripts; [[materialize]] plays that role
  * here (localCheckpoint = write the table, count = its row count) and
  * [[drop]] plays `DROP TABLE`. From these events we track:
  *
  *   - maximum live rows at any instant → Table IV "maximum space used";
  *   - total rows ever written          → Table V "total gigabytes written"
  *     (what a transaction would have to retain).
  *
  * Tables are named by role ("E", "L", ...), not by round. Materialising a
  * name that is already live is the paper's per-round idiom
  * `create table X2 …; drop table X; alter table X2 rename to X`: the new
  * table is created while the old one still exists, so the peak counts both,
  * `written` counts only the new one, and afterwards only the new one is live.
  *
  * All tables in every algorithm here are pairs of int64, so bytes are
  * rows * 16 — compression constants cancel in the input-relative ratios
  * EXPERIMENTS.md compares.
  */
final class SpaceTracker(val capRows: Long = Long.MaxValue, val algoName: String = "") {
  private val live               = mutable.LinkedHashMap.empty[String, Long]
  private var maxLive            = 0L
  private var written            = 0L
  private val roundRowsBuf       = mutable.ArrayBuffer.empty[Long]

  /** Materialise a DataFrame (truncating lineage) and record its size under
    * `name`, replacing the live table of that name if there is one.
    *
    * `localCheckpoint` alone is not enough: Spark copies the *estimated*
    * statistics of the original plan onto the checkpointed LogicalRDD
    * (`LogicalRDD.rewriteStatsAndConstraints`). Join estimates multiply, so
    * materialising round after round compounds `sizeInBytes` into BigInts
    * whose digit count triples per round — after ~12 rounds the driver spends
    * minutes multiplying million-digit numbers during planning. Re-wrapping
    * the checkpointed RDD in a fresh DataFrame resets the stats to the
    * session default each round, keeping planning O(1) per round.
    */
  def materialize(name: String, df: DataFrame): (DataFrame, Long) = {
    val ck   = df.localCheckpoint(true)
    val out  = df.sparkSession.createDataFrame(ck.rdd, ck.schema)
    val rows = out.count()
    create(name, rows)
    (out, rows)
  }

  /** Record creation of a table of `rows` rows under `name`; a live table of
    * the same name is dropped only after the new one has been counted.
    */
  def create(name: String, rows: Long): Unit = {
    written += rows
    val total = liveRows + rows
    if (total > maxLive) maxLive = total
    if (total > capRows) throw BlowUpException(algoName, total, capRows)
    live(name) = rows
  }

  /** Record dropping the live table `name` (space is freed). */
  def drop(name: String): Unit =
    require(live.remove(name).isDefined, s"$algoName dropped table $name, which is not live")

  /** Record the edge-table size after a contraction round (shrink telemetry). */
  def recordRound(edgeRows: Long): Unit = roundRowsBuf += edgeRows

  def maxLiveRows: Long        = maxLive
  def totalWrittenRows: Long   = written
  def liveRows: Long           = live.valuesIterator.sum
  def roundEdgeRows: Seq[Long] = roundRowsBuf.toSeq
}

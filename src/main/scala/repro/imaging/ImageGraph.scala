package repro.imaging

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.FiniteField64
import repro.gf.GfFunctions
import scala.util.Random

/** Image/video → graph conversion (paper §VII-A).
  *
  * The paper converts a Gigapixel Andromeda photo to a graph (one vertex per
  * pixel, an edge between horizontally/vertically adjacent pixels whose
  * colour distance is below a threshold) and a 4K video to a 3D variant with
  * 6-connectivity over (x, y, time). We have neither image; instead we render
  * a deterministic procedural *value-noise* image — smooth large-scale
  * structure quantised to 8-bit intensities — which, thresholded the same
  * way, yields the same graph family: degree ≤ 4 (2D) / ≤ 6 (3D) and a broad,
  * roughly scale-free component-size spread (cf. Fig. 5). Substitution is
  * documented in DESIGN.md §4.
  *
  * Everything is computed as pure column expressions (the intensity function
  * is re-evaluated on both endpoints of a candidate edge), so graph
  * generation itself is a single narrow Spark job with no joins.
  *
  * Vertex IDs are randomised through a fixed GF(2^64) bijection, exactly as
  * the paper randomised pixel IDs "so that they would not reflect the
  * geometry of the original image".
  */
object ImageGraph {

  /** Lattice cell size of the value noise (bigger ⇒ larger blobs). 4 gives
    * per-pixel gradients up to ~64 intensity levels, so the paper's
    * thresholds (50 for 2D, 20 for 3D) actually cut region boundaries:
    * ~95% / ~53% of candidate edges survive respectively — above the 2D bond
    * percolation threshold (big regions plus islands) and near it in 3D.
    */
  private val Cell = 4

  /** Pseudo-random corner value in [0, 256) for lattice point (cx, cy, ct). */
  private def corner(cx: Column, cy: Column, ct: Column, seed: Long): Column =
    pmod(xxhash64(cx, cy, ct, lit(seed)), lit(256L)).cast("double")

  /** 8-bit intensity at integer coordinates via trilinear value-noise. */
  def intensity(x: Column, y: Column, t: Column, seed: Long): Column = {
    val cx = floor(x / Cell).cast("long")
    val cy = floor(y / Cell).cast("long")
    val ct = floor(t / Cell).cast("long")
    val fx = (x - cx * Cell).cast("double") / Cell
    val fy = (y - cy * Cell).cast("double") / Cell
    val ft = (t - ct * Cell).cast("double") / Cell
    def lerp(a: Column, b: Column, f: Column): Column = a + (b - a) * f
    def at(dx: Int, dy: Int, dt: Int): Column =
      corner(cx + dx, cy + dy, ct + dt, seed)
    val c00 = lerp(at(0, 0, 0), at(1, 0, 0), fx)
    val c10 = lerp(at(0, 1, 0), at(1, 1, 0), fx)
    val c01 = lerp(at(0, 0, 1), at(1, 0, 1), fx)
    val c11 = lerp(at(0, 1, 1), at(1, 1, 1), fx)
    val c0  = lerp(c00, c10, fy)
    val c1  = lerp(c01, c11, fy)
    floor(lerp(c0, c1, ft)).cast("long")
  }

  /** Fixed GF(2^64) bijection used to scramble pixel IDs. */
  def randomizeIds(df: DataFrame, cols: Seq[String], seed: Long): DataFrame = {
    GfFunctions.ensureRegistered(df.sparkSession)
    val h = FiniteField64.nextRound(new Random(seed))
    cols.foldLeft(df)((d, c) => d.withColumn(c, h.hash(col(c))))
  }

  /** 2D image graph: 4-connectivity, |intensity diff| <= threshold.
    * The paper's Andromeda analogue. Vertices are pixels on at least one
    * kept edge (isolated pixels are excluded, as in Table II).
    */
  def image2d(spark: SparkSession, width: Long, height: Long, threshold: Int,
              seed: Long = 0xA11D0L): DataFrame = {
    def pixelId(x: Column, y: Column): Column = y * width + x
    def colorAt(x: Column, y: Column): Column = intensity(x, y, lit(0L), seed)

    // Horizontal candidates: (x,y)–(x+1,y) over a (width-1) × height grid.
    // (`/` on longs is double division in Spark SQL — floor+cast throughout.)
    val h = spark.range((width - 1) * height).select(
      (col("id") % (width - 1)).as("x"),
      floor(col("id") / (width - 1)).cast("long").as("y"))
      .select(pixelId(col("x"), col("y")).as("v"),
              pixelId(col("x") + 1, col("y")).as("w"),
              colorAt(col("x"), col("y")).as("c1"),
              colorAt(col("x") + 1, col("y")).as("c2"))
    // Vertical candidates: (x,y)–(x,y+1) over a width × (height-1) grid.
    val vv = spark.range(width * (height - 1)).select(
      (col("id") % width).as("x"),
      floor(col("id") / width).cast("long").as("y"))
      .select(pixelId(col("x"), col("y")).as("v"),
              pixelId(col("x"), col("y") + 1).as("w"),
              colorAt(col("x"), col("y")).as("c1"),
              colorAt(col("x"), col("y") + 1).as("c2"))
    val kept = h.union(vv).where(abs(col("c1") - col("c2")) <= threshold).select(col("v"), col("w"))
    randomizeIds(kept, Seq("v", "w"), seed + 1)
  }

  /** 3D volume graph: 6-connectivity over (x, y, t) — the Candels analogue.
    * Frame count doubles across the paper's Candels10…160 scalability series.
    */
  def video3d(spark: SparkSession, width: Long, height: Long, frames: Long, threshold: Int,
              seed: Long = 0xCA4DE15L): DataFrame = {
    def pixelId(x: Column, y: Column, t: Column): Column = (t * height + y) * width + x
    def colorAt(x: Column, y: Column, t: Column): Column = intensity(x, y, t, seed)

    def axis(nx: Long, ny: Long, nt: Long, dx: Int, dy: Int, dt: Int): DataFrame =
      spark.range(nx * ny * nt).select(
        (col("id") % nx).as("x"),
        (floor(col("id") / nx).cast("long") % ny).as("y"),
        floor(col("id") / (nx * ny)).cast("long").as("t"))
        .select(pixelId(col("x"), col("y"), col("t")).as("v"),
                pixelId(col("x") + dx, col("y") + dy, col("t") + dt).as("w"),
                colorAt(col("x"), col("y"), col("t")).as("c1"),
                colorAt(col("x") + dx, col("y") + dy, col("t") + dt).as("c2"))

    val cands = axis(width - 1, height, frames, 1, 0, 0)
      .union(axis(width, height - 1, frames, 0, 1, 0))
      .union(axis(width, height, frames - 1, 0, 0, 1))
    val kept = cands.where(abs(col("c1") - col("c2")) <= threshold).select(col("v"), col("w"))
    randomizeIds(kept, Seq("v", "w"), seed + 1)
  }
}

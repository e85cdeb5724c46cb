package repro.gf

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{BoundReference, Literal}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType}
import repro.ReproSpec
import scala.util.Random

/** The engine functions must agree with their driver-side counterparts
  * whether invoked through `call_function` or through SQL text — both call
  * paths are exercised by the algorithms — and when Catalyst interprets the
  * expression instead of generating code for it.
  */
class GfExpressionsSpec extends ReproSpec {

  override def beforeAll(): Unit = {
    super.beforeAll()
    GfFunctions.ensureRegistered(spark)
  }

  test("gf64_axb via call_function matches Gf64.axb") {
    val rng  = new Random(11)
    val a    = rng.nextLong() | 1L
    val b    = rng.nextLong()
    val xs   = Seq.fill(200)(rng.nextLong())
    import spark.implicits._
    val got = xs.toDF("x")
      .select(call_function("gf64_axb", lit(a), col("x"), lit(b)).as("y"))
      .collect().map(_.getLong(0))
    assert(got.toSeq == xs.map(Gf64.axb(a, _, b)))
  }

  test("gf64_axb via SQL text matches Gf64.axb") {
    import spark.implicits._
    Seq(0L, 1L, -1L, 42L, Long.MaxValue, Long.MinValue).toDF("x").createOrReplaceTempView("gfe_xs")
    val got = spark.sql(s"select gf64_axb(7, x, 9) as y from gfe_xs").collect().map(_.getLong(0))
    val want = Seq(0L, 1L, -1L, 42L, Long.MaxValue, Long.MinValue).map(Gf64.axb(7L, _, 9L))
    assert(got.toSeq == want)
  }

  test("gf64_axb via SQL text takes Long.MinValue, also as a DECIMAL(19,0)") {
    // RC-sql prints each draw into the query text; a = Long.MinValue is the
    // extreme literal, and a DECIMAL(19,0) argument must be cast like an INT.
    val want = Gf64.axb(Long.MinValue, 3L, Long.MinValue)
    val got = spark.sql("select gf64_axb(-9223372036854775808, 3, -9223372036854775808) as y")
    assert(got.head().getLong(0) == want)
    val dec = spark.sql("select cast(-9223372036854775808 as decimal(19,0)) as a")
    assert(dec.schema.head.dataType.simpleString == "decimal(19,0)")
    assert(dec.selectExpr("gf64_axb(a, 3, a)").head().getLong(0) == want)
  }

  test("gf64_axb registration is idempotent") {
    GfFunctions.ensureRegistered(spark)
    GfFunctions.ensureRegistered(spark)
    assert(spark.sql("select gf64_axb(1, 5, 0) as y").head().getLong(0) == 5L)
  }

  test("ensureRegistered registers the functions in every session it is given") {
    val other = spark.newSession()
    GfFunctions.ensureRegistered(other)
    assert(other.sql("select xtea_enc(5, 1, 2, 3, 4) as y").head().getLong(0) == Xtea.encrypt(5L, 1, 2, 3, 4))
  }

  test("xtea_enc matches Xtea.encrypt") {
    val rng              = new Random(13)
    val (k0, k1, k2, k3) = (rng.nextInt(), rng.nextInt(), rng.nextInt(), rng.nextInt())
    val xs               = Seq.fill(100)(rng.nextLong())
    import spark.implicits._
    val got = xs.toDF("x")
      .select(call_function("xtea_enc", col("x"), lit(k0), lit(k1), lit(k2), lit(k3)).as("y"))
      .collect().map(_.getLong(0))
    assert(got.toSeq == xs.map(Xtea.encrypt(_, k0, k1, k2, k3)))
  }

  test("gf64_axb propagates nulls") {
    val got = spark.sql("select gf64_axb(7, cast(null as bigint), 9) as y").head()
    assert(got.isNullAt(0))
  }

  test("gf64_axb works inside an aggregate over a grouping key (RC's R query)") {
    import spark.implicits._
    val e = Seq((1L, 2L), (1L, 3L), (2L, 1L)).toDF("v", "w")
    val r = e.groupBy(col("v"))
      .agg(least(call_function("gf64_axb", lit(3L), col("v"), lit(5L)),
                 min(call_function("gf64_axb", lit(3L), col("w"), lit(5L)))).as("r"))
      .collect().map(x => x.getLong(0) -> x.getLong(1)).toMap
    val h  = (x: Long) => Gf64.axb(3L, x, 5L)
    assert(r(1L) == Seq(h(1), h(2), h(3)).min)
    assert(r(2L) == Seq(h(2), h(1)).min)
  }

  /** The generated Java source of `df`'s plan. */
  private def generatedCode(df: DataFrame): String =
    df.queryExecution.debug.codegenToSeq().map(_._2).mkString

  test("gf64_axb and xtea_enc run in generated code as direct kernel calls") {
    val general = spark.range(10).select(
      call_function("gf64_axb", col("id"), col("id"), lit(5L)),
      call_function("xtea_enc", col("id"), col("id").cast("int"), lit(2), lit(3), lit(4)))
    val code = generatedCode(general)
    assert(code.contains("repro.gf.Gf64.axb(") && code.contains("repro.gf.Xtea.encrypt("))
    val bound = spark.range(10).select(
      call_function("gf64_axb", lit(3L), col("id"), lit(5L)),
      call_function("xtea_enc", col("id"), lit(1), lit(2), lit(3), lit(4)))
    val boundCode = generatedCode(bound)
    assert(boundCode.contains("repro.gf.Gf64$Affine") && boundCode.contains("repro.gf.Xtea$Key"))
  }

  test("new constants reuse the generated code (no compile per round)") {
    def plan(a: Long, k: Int) = spark.range(10).select(
      call_function("gf64_axb", lit(a), col("id"), lit(a + 1)),
      call_function("xtea_enc", col("id"), lit(k), lit(k + 1), lit(k + 2), lit(k + 3)))
    assert(generatedCode(plan(3L, 1)) == generatedCode(plan(-77L, 9)))
  }

  test("the built expressions evaluate interpreted (no codegen) like the kernels") {
    val rng = new Random(14)
    for (_ <- 1 to 20) {
      val (a, x, b) = (rng.nextLong(), rng.nextLong(), rng.nextLong())
      val k         = Seq.fill(4)(rng.nextInt())
      val want      = Xtea.encrypt(x, k(0), k(1), k(2), k(3))
      // Constant a, b and key: the bound path.
      assert(GfFunctions.gf64Axb(Seq(Literal(a), Literal(x), Literal(b))).eval() == Gf64.axb(a, x, b))
      assert(GfFunctions.xteaEnc(Literal(x) +: k.map(Literal(_))).eval() == want)
      // A column a and k0: the general path.
      val row = InternalRow(a, k(0))
      assert(GfFunctions.gf64Axb(Seq(BoundReference(0, LongType, nullable = false), Literal(x),
        Literal(b))).eval(row) == Gf64.axb(a, x, b))
      assert(GfFunctions.xteaEnc(Seq(Literal(x), BoundReference(1, IntegerType, nullable = false)) ++
        k.tail.map(Literal(_))).eval(row) == want)
    }
    assert(GfFunctions.gf64Axb(Seq(Literal(7L), Literal(null, LongType), Literal(9L))).eval() == null)
    assert(GfFunctions.gf64Axb(Seq(Literal(null, LongType), Literal(7L), Literal(9L))).eval() == null)
  }

  test("a wrong argument count fails, naming the function") {
    def message(e: Throwable): String =
      Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(x => String.valueOf(x.getMessage)).mkString("\n")
    val gf = intercept[Exception](spark.sql("select gf64_axb(1, 2) as y").collect())
    assert(message(gf).contains("gf64_axb takes 3 arguments, got 2"), gf)
    val xtea = intercept[Exception](spark.range(1).select(call_function("xtea_enc", col("id"), lit(1))))
    assert(message(xtea).contains("xtea_enc takes 5 arguments, got 2"), xtea)
  }
}

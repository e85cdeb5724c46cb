package repro.gf

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.FunctionIdentifier
import org.apache.spark.sql.catalyst.expressions.{Cast, Expression, ExpressionInfo, Literal}
import org.apache.spark.sql.catalyst.expressions.objects.{Invoke, StaticInvoke}
import org.apache.spark.sql.types.{DataType, IntegerType, LongType, ObjectType}

/** Engine functions for the randomisation bijections.
  *
  * The paper loads its finite-field arithmetic into the database as a C UDF
  * (`axplusb`, Fig. 7). The Spark analogue is a function registered in the
  * session's FunctionRegistry (see [[GfFunctions.ensureRegistered]]) and
  * called by name, via `call_function` or SQL text. Each name builds a
  * Catalyst `StaticInvoke` of the Scala kernel, so Spark supplies the rest:
  * implicit casts of the arguments (SQL `7` is an INT), null propagation, and
  * whole-stage codegen, in which each row's hash is one direct call of the
  * kernel.
  *
  * Every algorithm passes per-round constants (a and b, or the key). Codegen
  * inlines a constant into the generated Java source, so each round's new
  * draw would be new source that Spark compiles afresh, several times per
  * round. When the constants are foldable they are therefore bound into one
  * object ([[Gf64.Affine]], [[Xtea.Key]]) that the plan holds by reference,
  * and the kernel is called on it through `Invoke`: every round then shares
  * one compiled class.
  */
object GfFunctions {

  /** gf64_axb(a, x, b) = a*x + b over GF(2^64): the paper's `axplusb` UDF. */
  def gf64Axb(args: Seq[Expression]): Expression = arity("gf64_axb", args, 3) match {
    case Seq(a, x, b) if a.foldable && b.foldable =>
      bound(x, Seq(a -> LongType, b -> LongType)) { case Seq(a: Long, b: Long) => Gf64.Affine(a, b) }
    case _ =>
      StaticInvoke(Gf64.getClass, LongType, "axb", args, Seq(LongType, LongType, LongType),
        returnNullable = false)
  }

  /** xtea_enc(x, k0, k1, k2, k3): XTEA encryption of the 64-bit block x. */
  def xteaEnc(args: Seq[Expression]): Expression = arity("xtea_enc", args, 5) match {
    case x +: key if key.forall(_.foldable) =>
      bound(x, key.map(_ -> IntegerType)) { case Seq(k0: Int, k1: Int, k2: Int, k3: Int) =>
        Xtea.Key(k0, k1, k2, k3)
      }
    case _ =>
      StaticInvoke(Xtea.getClass, LongType, "encrypt", args, LongType +: Seq.fill(4)(IntegerType),
        returnNullable = false)
  }

  private def arity(name: String, args: Seq[Expression], n: Int): Seq[Expression] = {
    require(args.size == n, s"$name takes $n arguments, got ${args.size}")
    args
  }

  /** `h.apply(x)` for the object `h` that `bind` makes of the constants'
    * values, cast to their types; NULL when a constant is NULL.
    */
  private def bound(x: Expression, constants: Seq[(Expression, DataType)])(
      bind: Seq[Any] => AnyRef): Expression = {
    val values = constants.map { case (c, t) => Cast(c, t).eval() }
    if (values.contains(null)) Literal(null, LongType)
    else {
      val h = bind(values)
      Invoke(Literal(h, ObjectType(h.getClass)), "apply", LongType, Seq(x), Seq(LongType),
        returnNullable = false)
    }
  }

  /** Each name with one fixed description and builder. Spark warns when a
    * registration replaces a different definition; re-registering these
    * same objects replaces nothing it would warn about.
    */
  private val definitions = Seq[(String, Seq[Expression] => Expression)](
    "gf64_axb" -> gf64Axb, "xtea_enc" -> xteaEnc).map { case (name, builder) =>
    val info = new ExpressionInfo(classOf[StaticInvoke].getName, null, name, null,
      "", "", "", "", "", "", "scala_udf")
    (FunctionIdentifier(name), info, builder)
  }

  /** Registers `gf64_axb` and `xtea_enc` in the session, on every call. */
  def ensureRegistered(spark: SparkSession): Unit =
    definitions.foreach { case (id, info, builder) =>
      spark.sessionState.functionRegistry.registerFunction(id, info, builder)
    }
}

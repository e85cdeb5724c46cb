package perfbench

/** Just enough JSON writing for the benchmark's result line. */
object Json {
  def str(s: String): String = s.flatMap {
    case '"'            => "\\\""
    case '\\'           => "\\\\"
    case c if c < ' '   => f"\\u${c.toInt}%04x"
    case c              => c.toString
  }.mkString("\"", "", "\"")

  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}:$v" }.mkString("{", ",", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ",", "]")
}

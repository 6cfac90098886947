package repro.vcbench

/** Minimal JSON writer for the benchmark's records (maps, sequences,
  * tuples, strings, numbers, booleans). Non-finite doubles become null.
  */
object Json {

  def apply(v: Any): String = v match {
    case null | None           => "null"
    case Some(x)               => apply(x)
    case s: String             => quote(s)
    case b: Boolean            => b.toString
    case d: Double             => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n @ (_: Int | _: Long) => n.toString
    case m: Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case p: Product      => apply(p.productIterator.toSeq)
    case other           => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}

package perfbench

/** A JSON object that keeps its keys in the order given. */
final case class Obj(fields: Seq[(String, Any)])

/** Minimal JSON rendering for the result line and the run report. */
object Json {
  def apply(v: Any): String = v match {
    case null | None      => "null"
    case Some(x)          => apply(x)
    case s: String        => quote(s)
    case b: Boolean       => b.toString
    case d: Double        => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float         => apply(f.toDouble)
    case n: Number        => n.toString
    case Obj(fields)      => fields.map { case (k, x) => quote(k) + ":" + apply(x) }.mkString("{", ",", "}")
    case m: Map[_, _]     => apply(Obj(m.toSeq.map { case (k, x) => (k.toString, x) }))
    case xs: Iterable[_]  => xs.map(apply).mkString("[", ",", "]")
    case other            => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    b += '"'
    b.toString
  }
}

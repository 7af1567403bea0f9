package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class BuildIndexSpec extends AnyFunSuite {

  // <outDir> <n> <dim> <shards> <segments> <method> <alpha>
  private def args(segments: String, method: String) =
    Array("target/build-index-unused", "1000", "8", "1", segments, method, "0.15")

  test("an unknown method fails before Spark starts, naming the method") {
    for (bad <- Seq("rh", "XX", "NONE")) {
      val e = intercept[IllegalArgumentException](BuildIndex.main(args("4", bad)))
      assert(e.getMessage.contains(s"'$bad'"), e.getMessage)
    }
  }

  test("a segment count a hyperplane tree cannot have fails instead of rounding down") {
    for (method <- Seq("RH", "APD")) {
      val e = intercept[IllegalArgumentException](BuildIndex.main(args("6", method)))
      assert(e.getMessage.contains("got 6"), e.getMessage)
    }
  }
}

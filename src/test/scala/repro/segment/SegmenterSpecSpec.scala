package repro.segment

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.segment.SegmenterSpec.{Apd, Rh, Rs}

class SegmenterSpecSpec extends AnyFunSuite {

  private def sample(n: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    val rng = new java.util.Random(seed)
    Array.fill(n)(Array.fill(dim)(rng.nextFloat() * 2 - 1))
  }

  test("parse dispatches to every method and rejects unknowns") {
    val s = sample(64, 4, 1L)
    val rs = SegmenterSpec.parse("RS", 4, 0.1).learn(s, 4, 1L)
    assert(rs.isInstanceOf[RandomSegmenter] && rs.numSegments === 4)
    val rh = SegmenterSpec.parse("RH", 4, 0.1).learn(s, 4, 1L)
    assert(rh.numSegments === 4 && rh.asInstanceOf[HyperplaneSegmenter].mode === "RH")
    val apd = SegmenterSpec.parse("APD", 2, 0.1).learn(s, 4, 1L)
    assert(apd.numSegments === 2 && apd.asInstanceOf[HyperplaneSegmenter].mode === "APD")
    for (bad <- Seq("XX", "rh", "NONE", "")) {
      val e = intercept[IllegalArgumentException](SegmenterSpec.parse(bad, 4, 0.1))
      assert(e.getMessage.contains(s"'$bad'"), e.getMessage)
    }
    intercept[IllegalArgumentException](SegmenterSpec.parse("RH", 3, 0.1)) // not a power of two
  }

  test("hyperplane trees reject segment counts that are not a power of two >= 2") {
    for (bad <- Seq(0, 1, 3, 6, 12)) {
      val e = intercept[IllegalArgumentException](SegmenterSpec.parse("APD", bad, 0.15))
      assert(e.getMessage.contains(s"got $bad"), e.getMessage)
      intercept[IllegalArgumentException](Rh(bad, 0.15))
    }
    intercept[IllegalArgumentException](Rs(0))
    assert(Rs(6).learn(Array.empty, 4, 0L).numSegments === 6) // modulo routing takes any count
  }

  test("RS never draws a sample") {
    assert(Rs(4).learn(fail("RS forced its sample"), 4, 1L).numSegments === 4)
  }

  test("property: Rh/Apd learn routes exactly like a direct SegmenterLearner call") {
    val dim = 6
    val p = Prop.forAll(Gen.chooseNum(1L, 1000L), Gen.chooseNum(1, 3),
      Gen.chooseNum(0.0, 0.45)) { (seed, depth, alpha) =>
      val s = sample(200, dim, seed)
      val probes = sample(50, dim, seed + 1)
      val pairs = Seq(
        Rh(1 << depth, alpha).learn(s, dim, seed) ->
          SegmenterLearner.learnRH(s, dim, depth, alpha, seed),
        Apd(1 << depth, alpha).learn(s, dim, seed) ->
          SegmenterLearner.learnAPD(s, dim, depth, alpha, seed))
      pairs.forall { case (viaSpec, direct) =>
        probes.zipWithIndex.forall { case (v, i) =>
          viaSpec.routeData(i.toLong, v).sameElements(direct.routeData(i.toLong, v)) &&
            viaSpec.routeQuery(v).sameElements(direct.routeQuery(v))
        }
      }
    }
    val r = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), p)
    assert(r.passed, r.status.toString)
  }
}

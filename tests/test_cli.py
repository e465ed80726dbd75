from midrad import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_paper_loop(self, capsys):
        code, out, _ = run(capsys, "eval", "sin(pi + exp(-10000))", "--digits", "15")
        assert code == 0
        assert out.startswith("[-1.13548386531474e-4343 +/- ")

    def test_sqrt_minus_one_prints_nan(self, capsys):
        code, out, _ = run(capsys, "eval", "sqrt(-1)", "--max-prec", "256")
        assert code == 0 and out.strip() == "nan"

    def test_exact(self, capsys):
        code, out, _ = run(capsys, "eval", "sqrt(4)")
        assert code == 0 and out.strip() == "2"

    def test_variables(self, capsys):
        code, out, _ = run(capsys, "eval", "x*y", "--var", "x=1.5", "--var", "y=4")
        assert code == 0 and out.strip() == "6"

    def test_unconverged_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "log(2)+log(3)-log(6)",
                             "--digits", "15", "--max-prec", "1024")
        assert code == 2
        assert "unconverged" in err

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "sin(")
        assert code == 1 and "position" in err

    def test_deep_nesting_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "(" * 3000 + "1" + ")" * 3000)
        assert code == 1 and err.startswith("error:")

    def test_long_chain_exit_1(self, capsys):
        code, _, err = run(capsys, "round", "+".join(["1"] * 3000))
        assert code == 1 and err.startswith("error:")

    def test_bad_binding_exit_1(self, capsys):
        code, _, err = run(capsys, "eval", "x", "--var", "x")
        assert code == 1


class TestRound:
    def test_pi_nearest(self, capsys):
        code, out, _ = run(capsys, "round", "pi", "--bits", "53", "--mode", "nearest")
        assert code == 0 and out.strip() == "884279719003555*2^-48"

    def test_modes(self, capsys):
        code, lo, _ = run(capsys, "round", "pi", "--bits", "10", "--mode", "down")
        code2, hi, _ = run(capsys, "round", "pi", "--bits", "10", "--mode", "up")
        assert code == code2 == 0 and lo != hi

    def test_exact_case(self, capsys):
        code, out, _ = run(capsys, "round", "exp(0)", "--bits", "53")
        assert code == 0 and out.strip() == "1*2^0"

    def test_dilemma_exit_2(self, capsys):
        code, _, err = run(capsys, "round", "log(2)+log(3)-log(6)",
                           "--bits", "53", "--max-prec", "1024")
        assert code == 2 and "exact" in err


class TestBench:
    def test_factorial_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "factorial", "--n", "100", "--prec", "64")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,param,prec,seconds,metric"
        assert lines[1].startswith("factorial,100,64,")

    def test_falling_factorial_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "falling-factorial", "--n", "30", "--prec", "64")
        assert code == 0 and "falling-factorial,30,64," in out

    def test_polymul_csv(self, capsys):
        code, out, _ = run(capsys, "bench", "polymul", "--n", "32", "--prec", "64")
        assert code == 0
        assert "polymul-block,32,64," in out and "polymul-schoolbook,32,64," in out

    def test_usage_error(self, capsys):
        assert run(capsys, "bench", "nosuch")[0] == 1
        assert run(capsys)[0] == 1

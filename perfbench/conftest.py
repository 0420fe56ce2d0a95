import run

run.prepare()

# Operator entry points. Every target shells into the same commands CI
# runs (scripts/verify.sh rungs), so `make verify` locally is the CI
# gate, not an approximation of it. See OPERATIONS.md for the runbook.

GO ?= go

.PHONY: build test vet verify unit race differential smoke metrics fleet compose bench e2e \
        fleet-up fleet-down docker clean

build: ## Build all binaries into ./bin
	$(GO) build -o bin/ ./cmd/...

test: ## Unit tests
	$(GO) test ./...

vet: ## go vet
	$(GO) vet ./...

verify: ## The whole verification ladder, bottom to top
	scripts/verify.sh --level=all

unit race differential smoke metrics fleet compose bench e2e: ## Individual verify rungs
	scripts/verify.sh --level=$@

fleet-up: ## Start the docker-compose fleet (3 daemons + front on :17080)
	docker compose up --build -d --wait

fleet-down: ## Stop the docker-compose fleet and drop its state
	docker compose down -v --remove-orphans

docker: ## Build the rxld image
	docker build -t rxld .

clean:
	rm -rf bin rxld rxld.addr statsz.json r1.json r2.json
